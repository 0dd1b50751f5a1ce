// The benchmark's three workloads against a live in-process service::Server
// on loopback sockets (README.md says why each exists):
//
//   hit_storm  closed loop, 4 one-shot HTTP connections, every request a
//              textual variant of one of 64 canonical requests prefilled
//              at setup -> every request is a result-cache hit
//   cold_mix   closed loop, 4 persistent NDJSON connections, every request
//              unique (fresh seed) over a heavy op mix -> engine-bound
//   zipf_mix   open loop over HTTP, Poisson arrivals at a fixed rate, keys
//              Zipf-distributed over a universe larger than the cache
//
// The server only ever sees generated request documents; every response is
// checked (byte-equality with a setup-time reference, or an oracle).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "clients.h"
#include "loadgen.h"
#include "service/server.h"

namespace perfbench {

/// The op and graph of one request family; `seed` picks the instance.
struct Shape {
  const char* op;
  const char* backend;     ///< "mpc" or "mpc-native"
  const char* graph_type;  ///< "" for graph-free ops (sensitivity)
  std::uint32_t n = 0;
  std::uint32_t degree = 0;       ///< regular
  double p = 0.0;                 ///< random
  std::uint32_t simulations = 0;  ///< lifting (0 = server default)
  std::uint32_t seeds = 0;        ///< sensitivity (0 = server default)
};

/// The cold_mix families (heavy, every request unique).
const std::vector<Shape>& cold_shapes();
/// The cheap families (n <= 1024) hit_storm and zipf_mix draw from.
const std::vector<Shape>& cheap_shapes();

/// The generator types the workloads use (per-type graph.build_us).
const std::vector<std::string>& graph_types();

/// Short layer name of a shape's op: its op, or "mpc_native" for the
/// mpc-native connectivity tier.
std::string algo_name(const Shape& shape);

/// A request document as ordered (key, JSON literal) members, so variants
/// can reorder and re-space it without changing its meaning.
struct RequestDoc {
  std::vector<std::pair<std::string, std::string>> fields;
  std::vector<std::pair<std::string, std::string>> graph;  ///< empty = none

  /// Compact, fixed member order.
  std::string render() const;
  /// The same request as different text: shuffled member order, random
  /// whitespace, an `id`, and members the server ignores or leaves out of
  /// the cache key (`trace`, unknown fields).
  std::string render_variant(Rng& rng, std::uint64_t id) const;
};

/// The request of family `shape` with instance seed `seed` (used as both
/// the graph seed and the run seed; below 2^53 so JSON carries it exactly).
RequestDoc make_request(const Shape& shape, std::uint64_t seed,
                        bool trace = false);

/// Oracle for one result: `result_json` is the terminal event (NDJSON line
/// or HTTP body) answering make_request(shape, seed). Returns "" when it is
/// a successful result whose answer is right, else the reason.
std::string check_result(const Shape& shape, std::uint64_t seed,
                         std::string_view result_json);

// ---- deterministic key streams (one per workload, all from the seed) ----

/// Instance seed of the zipf_mix key with popularity rank `rank`.
std::uint64_t zipf_key_seed(std::uint64_t workload_seed, std::uint64_t rank);
/// Family of the zipf_mix key with popularity rank `rank`.
const Shape& zipf_key_shape(std::uint64_t rank);
/// The first `count` ranks of the zipf_mix request stream.
std::vector<std::uint32_t> zipf_rank_stream(std::uint64_t workload_seed,
                                            std::size_t count);
/// Instance seed of cold_mix request k on connection `client` (unique per
/// (client, k) by construction).
std::uint64_t cold_request_seed(std::uint64_t workload_seed, unsigned client,
                                std::uint64_t k);
/// Whether that request asks for a streamed trace (about 1 in 8).
bool cold_request_traced(std::uint64_t request_seed);
/// Family and instance seed of canonical hit_storm request i.
const Shape& hit_key_shape(std::size_t i);
std::uint64_t hit_key_seed(std::uint64_t workload_seed, std::size_t i);
/// The 64 canonical hit_storm requests.
std::vector<RequestDoc> hit_universe(std::uint64_t workload_seed);

// ---------------------------------------------------------------------

/// One measured load phase plus what the ledger needs from it.
struct Phase {
  LoadResult load;
  /// Client-side splits of HTTP exchanges (traced phases only).
  std::vector<double> connect_us, server_us;
  /// Latency of the phase's cache hits (HTTP workloads).
  std::vector<double> hit_latency_us;
  std::uint64_t hits = 0, misses = 0;  ///< by X-Cache, HTTP workloads

  /// Folds a later phase of the same kind into this one.
  void append(Phase&& later);
};

/// Workload-level correctness: failed/wrong requests and broken invariants.
struct Checks {
  std::uint64_t wrong = 0;  ///< requests that succeeded with a wrong answer
  std::vector<std::string> problems;
  void fail(std::string problem);
};

/// The server one workload drives, plus its request streams.
class Workload {
 public:
  static constexpr unsigned kClients = 4;

  virtual ~Workload();

  virtual const char* name() const = 0;
  /// Starts a fresh server and brings it to the measured state (prefill,
  /// warm-up, validation). Throws std::runtime_error when the workload
  /// cannot be set up (a request of the mix fails on this seed).
  virtual void setup() = 0;
  /// One measured load phase of `seconds`; `traced` also records the
  /// client-side split of every exchange.
  virtual Phase run(double seconds, bool traced) = 0;
  /// Checks every response of the phases run so far.
  virtual void verify(Checks& checks) = 0;

  /// Request bodies and terminal responses representative of the load, for
  /// the in-process layer timings.
  virtual std::vector<std::string> sample_requests() const = 0;
  virtual std::vector<std::string> sample_responses() const = 0;
  /// Requests of the load that reach the engine (empty for hit_storm).
  virtual std::vector<RequestDoc> engine_requests() const = 0;
  /// True for the HTTP workloads (front door + gateway layers apply).
  virtual bool http() const = 0;
  /// NDJSON only: the median extra time a streamed trace costs a request.
  virtual double stream_overhead_us() { return 0.0; }

  /// Drains and joins the current server, if any.
  void teardown();

 protected:
  explicit Workload(std::uint64_t seed) : seed_(seed) {}
  void start_server(bool http, bool tcp);

  std::uint64_t seed_;
  std::unique_ptr<mpcstab::service::Server> server_;
};

/// The workload named `name` ("hit_storm", "cold_mix", "zipf_mix"), or
/// nullptr.
std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed);

/// zipf_mix's fixed offered rate (requests per second).
double zipf_offered_rps();
/// zipf_mix's capacity probe: a closed loop of kClients over the same key
/// stream after setup, reporting completed requests per second.
double zipf_capacity_rps(std::uint64_t seed, double seconds);

}  // namespace perfbench
