#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <mutex>
#include <stdexcept>
#include <unordered_set>

#include "graph/components.h"
#include "obs/export.h"
#include "obs/registry.h"
#include "service/gateway.h"
#include "service/protocol.h"

namespace perfbench {

namespace svc = mpcstab::service;
using mpcstab::obs::JsonValue;

namespace {

/// Instance seeds stay below 2^53 (JSON numbers are doubles): a 50-bit
/// base plus an offset below 2^35.
constexpr std::uint64_t kSeedBase = (std::uint64_t{1} << 50) - 1;

/// zipf_mix: key universe (~43 MB of cache entries), popularity exponent,
/// setup prefill (the most popular ranks, about the 8 MiB budget) and the
/// fixed offered rate, about 45% of the closed-loop capacity
/// zipf_capacity_rps measures for this mix (README.md says why not 2/3).
constexpr std::size_t kZipfUniverse = 65536;
constexpr double kZipfExponent = 1.0;
constexpr std::size_t kZipfPrefill = 12288;
constexpr double kZipfRate = 4000.0;

/// hit_storm: canonical requests, their precomputed textual variants and
/// setup warm-up requests.
constexpr std::size_t kHitUniverse = 64;
constexpr std::size_t kHitVariants = 4096;
constexpr std::size_t kHitWarmup = 2048;

std::string quoted(std::string_view s) {
  std::string out = "\"";
  out += s;
  out += '"';
  return out;
}

std::string number(double value) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, end);
}

std::uint64_t registry_counter(const char* name) {
  return mpcstab::obs::Registry::global().counter(name).value();
}

bool bool_member(const JsonValue& obj, std::string_view key) {
  const JsonValue* member = obj.find(key);
  return member != nullptr && member->kind == JsonValue::Kind::kBool &&
         member->boolean;
}

/// Thread-safe collector of the first few problems seen by client threads.
class ProblemLog {
 public:
  void add(std::string problem) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (problems_.size() < 8) problems_.push_back(std::move(problem));
  }
  void drain_into(Checks& checks) {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::string& p : problems_) checks.problems.push_back(std::move(p));
    problems_.clear();
  }

 private:
  std::mutex mutex_;
  std::vector<std::string> problems_;
};

std::string describe(const Shape& shape, std::uint64_t seed) {
  return make_request(shape, seed).render();
}

}  // namespace

// ---- request families ----------------------------------------------------

const std::vector<Shape>& cold_shapes() {
  static const std::vector<Shape> shapes = {
      {"connectivity", "mpc", "regular", 16384, 4, 0.0, 0, 0},
      {"coloring", "mpc", "cycle", 1024, 0, 0.0, 0, 0},
      {"mis", "mpc", "regular", 4096, 4, 0.0, 0, 0},
      {"lifting", "mpc", "path", 256, 0, 0.0, 32, 0},
      {"sensitivity", "mpc", "", 0, 0, 0.0, 0, 16},
      {"connectivity", "mpc-native", "regular", 4096, 4, 0.0, 0, 0},
      {"connectivity", "mpc", "random", 2048, 0, 0.001, 0, 0},
  };
  return shapes;
}

const std::vector<Shape>& cheap_shapes() {
  static const std::vector<Shape> shapes = {
      {"connectivity", "mpc", "cycle", 256, 0, 0.0, 0, 0},
      {"connectivity", "mpc", "regular", 512, 4, 0.0, 0, 0},
      {"connectivity", "mpc", "random", 256, 0, 0.01, 0, 0},
      {"mis", "mpc", "path", 256, 0, 0.0, 0, 0},
      {"lifting", "mpc", "path", 64, 0, 0.0, 4, 0},
      {"sensitivity", "mpc", "", 0, 0, 0.0, 0, 8},
      {"coloring", "mpc", "cycle", 64, 0, 0.0, 0, 0},
      {"connectivity", "mpc-native", "regular", 64, 4, 0.0, 0, 0},
  };
  return shapes;
}

const std::vector<std::string>& graph_types() {
  static const std::vector<std::string> types = {"cycle", "path", "regular",
                                                 "random"};
  return types;
}

std::string algo_name(const Shape& shape) {
  return std::string_view(shape.backend) == "mpc-native" ? "mpc_native"
                                                         : shape.op;
}

// ---- request documents ---------------------------------------------------

std::string RequestDoc::render() const {
  const auto object = [](const auto& members, const auto& value_of) {
    std::string out = "{";
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (i != 0) out += ',';
      out += quoted(members[i].first);
      out += ':';
      out += value_of(members[i]);
    }
    out += '}';
    return out;
  };
  const std::string graph_json =
      object(graph, [](const auto& m) { return m.second; });
  return object(fields, [&](const auto& m) {
    return m.first == "graph" ? graph_json : m.second;
  });
}

std::string RequestDoc::render_variant(Rng& rng, std::uint64_t id) const {
  static constexpr const char* kSpace[] = {"", " ", "  ", "\n", "\t", " \n "};
  const auto ws = [&] { return kSpace[rng.below(std::size(kSpace))]; };
  const auto object = [&](std::vector<std::pair<std::string, std::string>> m) {
    for (std::size_t i = m.size(); i > 1; --i) {
      std::swap(m[i - 1], m[rng.below(i)]);
    }
    std::string out = "{";
    out += ws();
    for (std::size_t i = 0; i < m.size(); ++i) {
      if (i != 0) {
        out += ws();
        out += ',';
        out += ws();
      }
      out += quoted(m[i].first);
      out += ws();
      out += ':';
      out += ws();
      out += m[i].second;
    }
    out += ws();
    out += '}';
    return out;
  };
  std::vector<std::pair<std::string, std::string>> members;
  bool has_trace = false;
  for (const auto& [key, value] : fields) {
    members.emplace_back(key, key == "graph" ? object(graph) : value);
    has_trace = has_trace || key == "trace";
  }
  members.emplace_back("id", std::to_string(id));
  if (rng.below(2) != 0) members.emplace_back("client", quoted("perfbench"));
  if (rng.below(2) != 0) members.emplace_back("note", R"({"tags":[1,2,3]})");
  if (!has_trace && rng.below(2) != 0) {
    members.emplace_back("trace", rng.below(2) != 0 ? "true" : "false");
  }
  return object(std::move(members));
}

RequestDoc make_request(const Shape& shape, std::uint64_t seed, bool trace) {
  RequestDoc doc;
  doc.fields.emplace_back("op", quoted(shape.op));
  if (std::string_view(shape.backend) != "mpc") {
    doc.fields.emplace_back("backend", quoted(shape.backend));
  }
  if (*shape.graph_type != '\0') {
    doc.graph.emplace_back("type", quoted(shape.graph_type));
    doc.graph.emplace_back("n", std::to_string(shape.n));
    if (shape.degree != 0) {
      doc.graph.emplace_back("degree", std::to_string(shape.degree));
    }
    if (shape.p > 0.0) doc.graph.emplace_back("p", number(shape.p));
    doc.graph.emplace_back("seed", std::to_string(seed));
    doc.fields.emplace_back("graph", "");
  }
  doc.fields.emplace_back("seed", std::to_string(seed));
  if (shape.simulations != 0) {
    doc.fields.emplace_back("simulations", std::to_string(shape.simulations));
  }
  if (shape.seeds != 0) {
    doc.fields.emplace_back("seeds", std::to_string(shape.seeds));
  }
  if (trace) doc.fields.emplace_back("trace", "true");
  return doc;
}

std::string check_result(const Shape& shape, std::uint64_t seed,
                         std::string_view result_json) {
  const std::optional<JsonValue> doc = mpcstab::obs::parse_json(result_json);
  if (!doc.has_value() || doc->kind != JsonValue::Kind::kObject) {
    return "response is not a JSON object";
  }
  if (doc->str("event") != "result" || !bool_member(*doc, "ok")) {
    return "error event " + std::string(doc->str("kind")) + ": " +
           std::string(doc->str("message"));
  }
  if (doc->str("op") != shape.op) return "result for the wrong op";
  const JsonValue* answer = doc->find("answer");
  if (answer == nullptr || answer->kind != JsonValue::Kind::kObject) {
    return "result without an answer object";
  }
  const std::string_view op = shape.op;
  if (op == "connectivity") {
    const svc::ParsedRequest parsed =
        svc::parse_request(make_request(shape, seed).render());
    const mpcstab::Graph graph = svc::build_graph(parsed.request->graph);
    const std::uint32_t expected = mpcstab::connected_components(graph).count;
    if (answer->num("components") != static_cast<double>(expected)) {
      return "components " + number(answer->num("components")) +
             ", BFS oracle says " + std::to_string(expected);
    }
    if (!bool_member(*answer, "converged")) return "did not converge";
    if (std::string_view(shape.backend) == "mpc-native" &&
        !(doc->num("words") > 0.0)) {
      return "mpc-native run moved no words";
    }
  } else if (op == "coloring") {
    if (!bool_member(*answer, "proper")) return "coloring is not proper";
  } else if (op == "mis") {
    if (!bool_member(*answer, "independent")) return "set is not independent";
  } else if (op == "lifting") {
    // s = 0 and t = n - 1 on a path of n > radius + 1 nodes: no short s-t
    // path exists, so B_st-conn must answer NO in every simulation.
    if (answer->num("simulations") != shape.simulations) {
      return "lifting ran the wrong number of simulations";
    }
    if (bool_member(*answer, "yes") || answer->num("yes_votes") != 0.0) {
      return "lifting answered YES on a long path";
    }
  } else if (op == "sensitivity") {
    const double s = answer->num("sensitivity");
    if (!(s >= 0.0 && s <= 1.0)) return "sensitivity outside [0, 1]";
    if (answer->num("seeds") != shape.seeds) return "wrong seed count";
  }
  return "";
}

// ---- key streams ---------------------------------------------------------

std::uint64_t zipf_key_seed(std::uint64_t workload_seed, std::uint64_t rank) {
  return (mix64(workload_seed ^ 0x7a697066ull) & kSeedBase) + rank;
}

const Shape& zipf_key_shape(std::uint64_t rank) {
  return cheap_shapes()[rank % cheap_shapes().size()];
}

std::vector<std::uint32_t> zipf_rank_stream(std::uint64_t workload_seed,
                                            std::size_t count) {
  static const ZipfSampler zipf(kZipfUniverse, kZipfExponent);
  Rng rng(mix64(workload_seed ^ 0x72616e6bull));
  std::vector<std::uint32_t> ranks(count);
  for (std::uint32_t& r : ranks) {
    r = static_cast<std::uint32_t>(zipf.sample(rng));
  }
  return ranks;
}

std::uint64_t cold_request_seed(std::uint64_t workload_seed, unsigned client,
                                std::uint64_t k) {
  return (mix64(workload_seed ^ 0x636f6c64ull) & kSeedBase) +
         (static_cast<std::uint64_t>(client) << 32) + k;
}

bool cold_request_traced(std::uint64_t request_seed) {
  return mix64(request_seed) % 8 == 0;
}

const Shape& hit_key_shape(std::size_t i) {
  return cheap_shapes()[i % cheap_shapes().size()];
}

std::uint64_t hit_key_seed(std::uint64_t workload_seed, std::size_t i) {
  return (mix64(workload_seed ^ 0x686974ull) & kSeedBase) + i;
}

std::vector<RequestDoc> hit_universe(std::uint64_t workload_seed) {
  std::vector<RequestDoc> docs;
  for (std::size_t i = 0; i < kHitUniverse; ++i) {
    docs.push_back(
        make_request(hit_key_shape(i), hit_key_seed(workload_seed, i)));
  }
  return docs;
}

// ---- workload plumbing ---------------------------------------------------

void Phase::append(Phase&& later) {
  const auto concat = [](auto& into, auto& from) {
    into.insert(into.end(), from.begin(), from.end());
  };
  concat(load.samples, later.load.samples);
  load.elapsed_s += later.load.elapsed_s;
  concat(connect_us, later.connect_us);
  concat(server_us, later.server_us);
  concat(hit_latency_us, later.hit_latency_us);
  hits += later.hits;
  misses += later.misses;
}

void Checks::fail(std::string problem) {
  if (problems.size() < 16) problems.push_back(std::move(problem));
}

Workload::~Workload() { teardown(); }

void Workload::teardown() {
  if (!server_) return;
  server_->begin_drain();
  server_->wait();
  server_.reset();
}

void Workload::start_server(bool http, bool tcp) {
  teardown();
  svc::ServerOptions opts;
  opts.http = http;
  opts.listen_tcp = tcp;
  server_ = std::make_unique<svc::Server>(opts);
  std::string error;
  if (!server_->start(&error)) {
    server_.reset();
    throw std::runtime_error("server failed to start: " + error);
  }
}

namespace {

// ---- hit_storm -------------------------------------------------------------

class HitStorm final : public Workload {
 public:
  explicit HitStorm(std::uint64_t seed)
      : Workload(seed), universe_(hit_universe(seed)) {
    Rng rng(mix64(seed ^ 0x76617269ull));
    variants_.reserve(kHitVariants);
    for (std::size_t v = 0; v < kHitVariants; ++v) {
      const std::size_t index = rng.below(universe_.size());
      variants_.push_back(
          {index, http_query_bytes(universe_[index].render_variant(
                      rng, rng.below(std::uint64_t{1} << 40)))});
    }
  }

  const char* name() const override { return "hit_storm"; }
  bool http() const override { return true; }

  void setup() override {
    start_server(/*http=*/true, /*tcp=*/false);
    const std::uint16_t port = server_->http_port();
    reference_.assign(universe_.size(), std::string());
    ProblemLog problems;
    parallel_for(universe_.size(), kClients, [&](std::size_t i) {
      HttpReply reply;
      const Shape& shape = hit_key_shape(i);
      const std::uint64_t seed = hit_key_seed(seed_, i);
      if (!http_exchange(port, http_query_bytes(universe_[i].render()),
                         &reply) ||
          reply.status != 200) {
        problems.add("prefill failed: " + describe(shape, seed));
        return;
      }
      if (std::string why = check_result(shape, seed, reply.body);
          !why.empty()) {
        problems.add("prefill answer wrong (" + why + "): " +
                     describe(shape, seed));
        return;
      }
      reference_[i] = reply.body;
    });
    parallel_for(kHitWarmup, kClients, [&](std::size_t i) {
      if (!exchange(variants_[i % variants_.size()], nullptr)) {
        problems.add("warm-up request was not a correct hit");
      }
    });
    Checks checks;
    problems.drain_into(checks);
    if (!checks.problems.empty()) {
      throw std::runtime_error("hit_storm setup: " + checks.problems.front());
    }
  }

  Phase run(double seconds, bool traced) override {
    const std::uint64_t admitted = registry_counter("engine.admitted");
    // Per client: (connect_us, server_us) of each exchange, traced only.
    std::vector<std::vector<std::pair<double, double>>> splits(kClients);
    Phase phase;
    phase.load = run_closed_loop(kClients, seconds, [&](unsigned c,
                                                        std::uint64_t k) {
      const Variant& v = variants_[(k * kClients + c) % variants_.size()];
      HttpReply reply;
      const bool ok = exchange(v, &reply);
      if (traced) splits[c].emplace_back(reply.connect_us, reply.server_us);
      return ok;
    });
    if (registry_counter("engine.admitted") != admitted) {
      invariants_.add("engine.admitted moved during hit_storm");
    }
    for (const auto& per_client : splits) {
      for (const auto& [connect, server] : per_client) {
        phase.connect_us.push_back(connect);
        phase.server_us.push_back(server);
      }
    }
    phase.hits = phase.load.samples.size() - phase.load.failed();
    phase.misses = 0;
    if (traced) phase.hit_latency_us = phase.load.latencies_us();
    return phase;
  }

  void verify(Checks& checks) override {
    problems_.drain_into(checks);
    invariants_.drain_into(checks);
  }

  std::vector<std::string> sample_requests() const override {
    std::vector<std::string> bodies;
    for (const RequestDoc& doc : universe_) bodies.push_back(doc.render());
    return bodies;
  }
  std::vector<std::string> sample_responses() const override {
    return reference_;
  }
  std::vector<RequestDoc> engine_requests() const override { return {}; }

 private:
  struct Variant {
    std::size_t index;  ///< canonical request it is a variant of
    std::string wire;
  };

  /// One exchange; correct only as a hit byte-equal to the reference.
  bool exchange(const Variant& v, HttpReply* out) {
    HttpReply local;
    HttpReply& reply = out != nullptr ? *out : local;
    if (!http_exchange(server_->http_port(), v.wire, &reply)) {
      problems_.add("exchange failed");
      return false;
    }
    if (reply.status != 200 || reply.x_cache != "hit") {
      problems_.add("status " + std::to_string(reply.status) + " X-Cache '" +
                    reply.x_cache + "'");
      return false;
    }
    if (reply.body != reference_[v.index]) {
      problems_.add("hit body differs from the setup reference");
      return false;
    }
    return true;
  }

  std::vector<RequestDoc> universe_;
  std::vector<Variant> variants_;
  std::vector<std::string> reference_;
  ProblemLog problems_;
  ProblemLog invariants_;
};

// ---- cold_mix --------------------------------------------------------------

class ColdMix final : public Workload {
 public:
  explicit ColdMix(std::uint64_t seed) : Workload(seed) {}

  const char* name() const override { return "cold_mix"; }
  bool http() const override { return false; }

  void setup() override {
    start_server(/*http=*/false, /*tcp=*/true);
    clients_.clear();
    for (unsigned c = 0; c < kClients; ++c) {
      clients_.push_back(std::make_unique<NdjsonClient>());
      if (!clients_.back()->open(server_->tcp_port())) {
        throw std::runtime_error("cold_mix setup: NDJSON connect failed");
      }
    }
    // Every family of the mix must succeed on this seed: run one instance
    // of each (from a seed stream the load never uses) and check it.
    ProblemLog problems;
    const std::size_t families = cold_shapes().size();
    parallel_for(kClients, kClients, [&](std::size_t c) {
      for (std::size_t s = c; s < families; s += kClients) {
        const std::uint64_t seed = cold_request_seed(seed_, kValidation, s);
        std::string terminal;
        std::size_t events = 0;
        if (!clients_[c]->request(
                make_request(cold_shapes()[s], seed).render(), &terminal,
                &events)) {
          problems.add("validation request failed at the socket");
          continue;
        }
        if (std::string why = check_result(cold_shapes()[s], seed, terminal);
            !why.empty()) {
          problems.add(why + ": " + describe(cold_shapes()[s], seed));
        }
      }
    });
    // Warm-up: every connection runs each family once (first-touch
    // allocation of the session threads and the engine's buffers).
    parallel_for(kClients, kClients, [&](std::size_t c) {
      for (std::size_t s = 0; s < families; ++s) {
        std::string terminal;
        std::size_t events = 0;
        clients_[c]->request(
            make_request(cold_shapes()[s],
                         cold_request_seed(seed_, kValidation,
                                           families * (c + 1) + s))
                .render(),
            &terminal, &events);
      }
    });
    Checks checks;
    problems.drain_into(checks);
    if (!checks.problems.empty()) {
      throw std::runtime_error("cold_mix setup rejects the mix: " +
                               checks.problems.front());
    }
  }

  Phase run(double seconds, bool traced) override {
    (void)traced;  // NDJSON exchanges have no client-side split
    std::vector<std::vector<Record>> per_client(kClients);
    Phase phase;
    phase.load = run_closed_loop(kClients, seconds, [&](unsigned c,
                                                        std::uint64_t) {
      Record record;
      record.shape = (c + next_k_[c]) % cold_shapes().size();
      record.seed = cold_request_seed(seed_, c, next_k_[c]++);
      record.traced = cold_request_traced(record.seed);
      const bool sent = clients_[c]->request(
          make_request(cold_shapes()[record.shape], record.seed,
                       record.traced)
              .render(),
          &record.terminal, &record.events);
      const bool ok =
          sent && record.terminal.find("\"event\":\"result\"") !=
                      std::string::npos;
      if (!ok) record.terminal = "socket failure";
      per_client[c].push_back(std::move(record));
      return ok;
    });
    for (auto& records : per_client) {
      for (Record& r : records) records_.push_back(std::move(r));
    }
    return phase;
  }

  void verify(Checks& checks) override {
    std::atomic<std::uint64_t> wrong{0};
    ProblemLog problems;
    parallel_for(records_.size(), kClients, [&](std::size_t i) {
      const Record& r = records_[i];
      if (r.terminal.find("\"event\":\"result\"") == std::string::npos) {
        problems.add("failed: " + r.terminal.substr(0, 200));
        return;  // already counted as a failed request
      }
      std::string why =
          check_result(cold_shapes()[r.shape], r.seed, r.terminal);
      if (why.empty() && r.traced && r.events == 0) {
        why = "trace:true request streamed no trace events";
      }
      if (!why.empty()) {
        wrong.fetch_add(1);
        problems.add(why + ": " + describe(cold_shapes()[r.shape], r.seed));
      }
    });
    checks.wrong += wrong.load();
    problems.drain_into(checks);
    std::unordered_set<std::uint64_t> seeds;
    for (const Record& r : records_) {
      if (!seeds.insert(r.seed).second) {
        checks.fail("cold_mix reused request seed " + std::to_string(r.seed));
      }
    }
  }

  std::vector<std::string> sample_requests() const override {
    std::vector<std::string> bodies;
    for (const RequestDoc& doc : engine_requests()) {
      bodies.push_back(doc.render());
    }
    return bodies;
  }
  std::vector<std::string> sample_responses() const override {
    std::vector<std::string> lines;
    for (std::size_t s = 0; s < cold_shapes().size(); ++s) {
      const auto it = std::find_if(
          records_.begin(), records_.end(),
          [&](const Record& r) { return r.shape == s && !r.traced; });
      if (it != records_.end()) lines.push_back(it->terminal);
    }
    return lines;
  }
  std::vector<RequestDoc> engine_requests() const override {
    std::vector<RequestDoc> docs;
    for (std::size_t s = 0; s < cold_shapes().size(); ++s) {
      docs.push_back(make_request(cold_shapes()[s],
                                  cold_request_seed(seed_, kValidation, s)));
    }
    return docs;
  }

  double stream_overhead_us() override {
    // The same request with and without a streamed trace, alternating
    // which goes first; the median of the paired differences.
    std::vector<double> deltas;
    const std::size_t families = cold_shapes().size();
    for (std::size_t j = 0; j < 2 * families; ++j) {
      const Shape& shape = cold_shapes()[j % families];
      const std::uint64_t seed = cold_request_seed(seed_, kOverhead, j);
      double took[2] = {0.0, 0.0};
      for (int leg = 0; leg < 2; ++leg) {
        const bool trace = ((j + leg) % 2) == 0;
        std::string terminal;
        std::size_t events = 0;
        const Clock::time_point t0 = Clock::now();
        clients_[0]->request(make_request(shape, seed, trace).render(),
                             &terminal, &events);
        took[trace ? 1 : 0] =
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count();
      }
      deltas.push_back(took[1] - took[0]);
    }
    return median(deltas);
  }

 private:
  /// Seed streams outside the load's clients 0..kClients-1.
  static constexpr unsigned kValidation = kClients;
  static constexpr unsigned kOverhead = kClients + 1;

  struct Record {
    std::size_t shape = 0;
    std::uint64_t seed = 0;
    bool traced = false;
    std::string terminal;
    std::size_t events = 0;
  };

  std::vector<std::unique_ptr<NdjsonClient>> clients_;
  std::uint64_t next_k_[kClients] = {};
  std::vector<Record> records_;
};

// ---- zipf_mix --------------------------------------------------------------

class ZipfMix final : public Workload {
 public:
  explicit ZipfMix(std::uint64_t seed)
      : Workload(seed), first_body_(kZipfUniverse), claimed_(kZipfUniverse) {}

  const char* name() const override { return "zipf_mix"; }
  bool http() const override { return true; }

  void setup() override {
    start_server(/*http=*/true, /*tcp=*/false);
    // The most popular keys are computed once, the way a warm cache holds
    // them; the load then keeps inserting and evicting the tail.
    std::atomic<std::uint64_t> failures{0};
    parallel_for(kZipfPrefill, kClients, [&](std::size_t rank) {
      HttpReply reply;
      if (!http_exchange(server_->http_port(), wire(rank), &reply) ||
          reply.status != 200) {
        failures.fetch_add(1);
        return;
      }
      claim(rank, reply.body);
    });
    if (failures.load() != 0) {
      throw std::runtime_error("zipf_mix setup: " +
                               std::to_string(failures.load()) +
                               " prefill requests failed");
    }
    evictions_before_ = registry_counter("service.cache_evictions");
  }

  Phase run(double seconds, bool traced) override {
    const std::uint64_t phase_seed = mix64(seed_ + ++phases_);
    const std::vector<Clock::duration> schedule =
        poisson_schedule(kZipfRate, seconds, phase_seed);
    const std::vector<std::uint32_t> ranks =
        zipf_rank_stream(phase_seed, schedule.size());
    std::vector<std::uint64_t> hashes(schedule.size());
    std::vector<char> hit(schedule.size(), 0);
    std::vector<double> connect(schedule.size()), server(schedule.size());
    Phase phase;
    phase.load = run_open_loop(schedule, kClients, [&](std::size_t i) {
      HttpReply reply;
      if (!http_exchange(server_->http_port(), wire(ranks[i]), &reply) ||
          reply.status != 200 ||
          (reply.x_cache != "hit" && reply.x_cache != "miss")) {
        problems_.add("status " + std::to_string(reply.status) +
                      " X-Cache '" + reply.x_cache + "'");
        return false;
      }
      hit[i] = reply.x_cache == "hit";
      hashes[i] = svc::fnv1a64(reply.body);
      connect[i] = reply.connect_us;
      server[i] = reply.server_us;
      claim(ranks[i], reply.body);
      return true;
    });
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      if (!phase.load.samples[i].ok) continue;
      responses_.push_back({ranks[i], hashes[i]});
      if (hit[i] != 0) {
        ++phase.hits;
        phase.hit_latency_us.push_back(phase.load.samples[i].latency_us);
      } else {
        ++phase.misses;
      }
      if (traced) {
        phase.connect_us.push_back(connect[i]);
        phase.server_us.push_back(server[i]);
      }
    }
    hits_ += phase.hits;
    misses_ += phase.misses;
    stream_head_.assign(
        ranks.begin(), ranks.begin() + std::min<std::size_t>(64, ranks.size()));
    return phase;
  }

  void verify(Checks& checks) override {
    problems_.drain_into(checks);
    // Each key's body must pass the oracle ...
    std::vector<char> bad(kZipfUniverse, 0);
    ProblemLog problems;
    parallel_for(kZipfUniverse, kClients, [&](std::size_t rank) {
      if (claimed_[rank].load() == 0) return;
      const Shape& shape = zipf_key_shape(rank);
      const std::uint64_t seed = zipf_key_seed(seed_, rank);
      if (std::string why = check_result(shape, seed, first_body_[rank]);
          !why.empty()) {
        bad[rank] = 1;
        problems.add(why + ": " + describe(shape, seed));
      }
    });
    problems.drain_into(checks);
    // ... and every response for one key must be byte-identical to it,
    // whether it was a hit or a miss.
    for (const auto& [rank, hash] : responses_) {
      if (bad[rank] != 0) {
        ++checks.wrong;
      } else if (hash != svc::fnv1a64(first_body_[rank])) {
        ++checks.wrong;
        checks.fail("key rank " + std::to_string(rank) +
                    " answered with different bodies");
      }
    }
    // The workload's shape: hits and misses both occur, and the cache
    // evicts (the key universe is larger than its budget).
    if (hits_ == 0 || misses_ == 0) {
      checks.fail("zipf_mix needs both hits and misses; saw " +
                  std::to_string(hits_) + " hits, " + std::to_string(misses_) +
                  " misses");
    }
    if (registry_counter("service.cache_evictions") == evictions_before_) {
      checks.fail("zipf_mix never evicted from the result cache");
    }
  }

  std::vector<std::string> sample_requests() const override {
    std::vector<std::string> bodies;
    for (const std::uint32_t rank : stream_head_) {
      bodies.push_back(
          make_request(zipf_key_shape(rank), zipf_key_seed(seed_, rank))
              .render());
    }
    return bodies;
  }
  std::vector<std::string> sample_responses() const override {
    std::vector<std::string> bodies;
    for (std::size_t rank = 0; rank < cheap_shapes().size(); ++rank) {
      bodies.push_back(first_body_[rank]);
    }
    return bodies;
  }
  std::vector<RequestDoc> engine_requests() const override {
    // Misses reach the engine: tail keys, three of each family.
    std::vector<RequestDoc> docs;
    for (std::size_t j = 0; j < 3 * cheap_shapes().size(); ++j) {
      const std::size_t rank = kZipfPrefill + j;
      docs.push_back(
          make_request(zipf_key_shape(rank), zipf_key_seed(seed_, rank)));
    }
    return docs;
  }

  /// Closed-loop capacity over the same key stream.
  double capacity(double seconds) {
    const std::vector<std::uint32_t> ranks =
        zipf_rank_stream(mix64(seed_ + 1000), 1u << 22);
    std::atomic<std::size_t> next{0};
    const LoadResult load = run_closed_loop(
        kClients, seconds, [&](unsigned, std::uint64_t) {
          HttpReply reply;
          const std::size_t i = next.fetch_add(1) % ranks.size();
          return http_exchange(server_->http_port(), wire(ranks[i]), &reply) &&
                 reply.status == 200;
        });
    return load.throughput_rps();
  }

 private:
  std::string wire(std::size_t rank) const {
    return http_query_bytes(
        make_request(zipf_key_shape(rank), zipf_key_seed(seed_, rank))
            .render());
  }

  /// Keeps the first body seen for `rank` (one writer per rank).
  void claim(std::size_t rank, const std::string& body) {
    if (claimed_[rank].exchange(1) == 0) first_body_[rank] = body;
  }

  std::vector<std::string> first_body_;
  std::vector<std::atomic<std::uint8_t>> claimed_;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> responses_;
  std::vector<std::uint32_t> stream_head_;
  std::uint64_t phases_ = 0;
  std::uint64_t hits_ = 0, misses_ = 0;
  std::uint64_t evictions_before_ = 0;
  ProblemLog problems_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed) {
  if (name == "hit_storm") return std::make_unique<HitStorm>(seed);
  if (name == "cold_mix") return std::make_unique<ColdMix>(seed);
  if (name == "zipf_mix") return std::make_unique<ZipfMix>(seed);
  return nullptr;
}

double zipf_offered_rps() { return kZipfRate; }

double zipf_capacity_rps(std::uint64_t seed, double seconds) {
  ZipfMix mix(seed);
  mix.setup();
  return mix.capacity(seconds);
}

}  // namespace perfbench
