#include "ledger.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "graph/legal_graph.h"
#include "mpc/cluster.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "service/executor.h"
#include "service/gateway.h"
#include "service/protocol.h"

namespace perfbench {

namespace svc = mpcstab::service;
namespace obs = mpcstab::obs;

namespace {

/// Keeps timed results observable so the calls cannot be optimized away.
volatile std::size_t g_sink = 0;

/// Calls f() `reps` times, appending each call's duration in µs to `out`.
template <class F>
void time_calls(std::vector<double>& out, int reps, F&& f) {
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    g_sink = g_sink + f();
    out.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
}

constexpr int kReps = 16;

/// The NDJSON/HTTP protocol layer: request parsing and result framing.
struct ProtocolTimes {
  double parse_us = 0.0;
  double frame_us = 0.0;
};

ProtocolTimes time_protocol(const std::vector<std::string>& requests,
                            const std::vector<std::string>& responses) {
  std::vector<double> parse, frame;
  for (const std::string& body : requests) {
    time_calls(parse, kReps, [&] {
      return svc::parse_request(body).request.has_value() ? 1u : 0u;
    });
  }
  for (const std::string& response : responses) {
    // Re-frame the response's own parts the way the server frames results.
    const std::size_t m = response.find("\"metrics\":");
    const std::size_t a = response.find(",\"answer\":");
    const std::size_t end = response.rfind('}');
    const std::optional<obs::JsonValue> doc = obs::parse_json(response);
    if (m == std::string::npos || a == std::string::npos || a < m ||
        !doc.has_value()) {
      continue;
    }
    const std::string metrics = response.substr(m + 10, a - m - 10);
    const std::string answer = response.substr(a + 10, end - a - 10);
    const std::string op(doc->str("op"));
    const auto rounds = static_cast<std::uint64_t>(doc->num("rounds"));
    const auto words = static_cast<std::uint64_t>(doc->num("words"));
    time_calls(frame, kReps, [&] {
      return std::move(svc::JsonObject()
                           .field("id", std::uint64_t{7})
                           .field("event", "result")
                           .field("ok", true)
                           .field("op", op)
                           .field("rounds", rounds)
                           .field("words", words)
                           .raw("metrics", metrics)
                           .raw("answer", answer))
          .str()
          .size();
    });
  }
  return {median(parse), median(frame)};
}

/// The HTTP front door and gateway, on a benchmark-owned Gateway and
/// ResultCache with the server's default options.
struct FrontDoorTimes {
  double http_parse_us = 0.0;
  double canonical_us = 0.0;
  double lookup_us = 0.0;
  double insert_us = 0.0;
  double handle_us = 0.0;
  double serialize_us = 0.0;
};

FrontDoorTimes time_front_door(const std::vector<std::string>& requests,
                               const std::vector<std::string>& responses) {
  const svc::GatewayOptions opts;
  svc::Gateway gateway(opts);
  svc::ResultCache cache(opts.cache_budget_bytes);
  std::vector<double> http_parse, canonical, lookup, insert, handle, serialize;
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::string wire = http_query_bytes(requests[i]);
    time_calls(http_parse, kReps, [&] {
      svc::HttpRequestParser parser(opts.max_head_bytes, opts.max_body_bytes);
      return static_cast<std::size_t>(parser.feed(wire));
    });
    svc::HttpRequestParser parser(opts.max_head_bytes, opts.max_body_bytes);
    parser.feed(wire);
    const svc::Request req = *svc::parse_request(requests[i]).request;
    time_calls(canonical, kReps,
               [&] { return svc::canonical_request(req).size(); });
    const std::string key = svc::canonical_request(req);
    keys.push_back(key);
    cache.insert(key, responses.empty() ? std::string()
                                        : responses[i % responses.size()]);
    time_calls(lookup, kReps, [&] { return cache.lookup(key)->size(); });
    gateway.handle(parser.request());  // the first call computes (a miss)
    svc::HttpResponse response;
    time_calls(handle, kReps, [&] {
      response = gateway.handle(parser.request());
      return response.body.size();
    });
    time_calls(serialize, kReps, [&] { return response.serialize().size(); });
  }
  // Inserts in steady state: the cache is full, so each insert evicts.
  if (!keys.empty() && !responses.empty()) {
    std::size_t filled = 0;
    for (std::size_t k = 0; filled <= opts.cache_budget_bytes; ++k) {
      const std::string key = keys[k % keys.size()] + "#" + std::to_string(k);
      const std::string& body = responses[k % responses.size()];
      filled += key.size() + body.size();
      cache.insert(key, body);
    }
    for (std::size_t k = 0; k < keys.size() * kReps; ++k) {
      const std::string key = keys[k % keys.size()] + "@" + std::to_string(k);
      std::string body = responses[k % responses.size()];
      time_calls(insert, 1, [&] {
        cache.insert(key, std::move(body));
        return std::size_t{1};
      });
    }
  }
  return {median(http_parse), median(canonical), median(lookup),
          median(insert),     median(handle),    median(serialize)};
}

/// The engine-side layers: graph generators and the op runners behind
/// execute_on, on a benchmark-owned traced Cluster per request.
struct AlgoTimes {
  std::vector<double> wall_us;
  double rounds = 0.0;
  double words = 0.0;
};

struct EngineTimes {
  std::map<std::string, std::vector<double>> build_us;  ///< per graph type
  std::map<std::string, AlgoTimes> algo;                ///< per algo_name
  double native_wall_ns = 0.0, native_words = 0.0;      ///< mpc-native runs
};

EngineTimes time_engine(const std::vector<RequestDoc>& docs) {
  EngineTimes times;
  for (const RequestDoc& doc : docs) {
    const svc::Request req = *svc::parse_request(doc.render()).request;
    const std::string name =
        req.backend == "mpc-native" ? "mpc_native" : req.op;
    for (int rep = 0; rep < 2; ++rep) {
      mpcstab::Graph graph(1);
      mpcstab::MpcConfig config;
      if (req.op == "sensitivity") {
        // Graph-free: the same scratch deployment service::execute uses.
        config.n = 2;
        config.local_space = 8;
        config.machines = 1;
      } else {
        time_calls(times.build_us[req.graph.type], 1, [&] {
          graph = svc::build_graph(req.graph);
          return static_cast<std::size_t>(graph.n());
        });
        config = svc::resolve_config(req, graph.n(), graph.m());
      }
      const mpcstab::LegalGraph g =
          mpcstab::LegalGraph::with_identity(std::move(graph));
      mpcstab::Cluster cluster(config);
      const svc::ExecResult result = svc::execute_on(cluster, g, req, {});
      if (!result.ok) continue;
      const obs::SpanNode tree = cluster.trace()->tree();
      for (const obs::SpanNode& span : tree.children) {
        if (span.name != req.op) continue;
        AlgoTimes& algo = times.algo[name];
        algo.wall_us.push_back(static_cast<double>(span.wall_ns) / 1e3);
        algo.rounds = static_cast<double>(result.rounds);
        algo.words = static_cast<double>(result.words);
        if (name == "mpc_native") {
          times.native_wall_ns += static_cast<double>(span.wall_ns);
          times.native_words += static_cast<double>(result.words);
        }
      }
    }
  }
  return times;
}

}  // namespace

RegistrySnapshot RegistrySnapshot::take() {
  RegistrySnapshot snap;
  for (obs::MetricSample& m : obs::Registry::global().snapshot()) {
    if (m.type == obs::MetricSample::Type::kCounter) {
      snap.counters_.emplace(m.name, std::move(m));
    } else if (m.type == obs::MetricSample::Type::kHistogram) {
      snap.histograms_.emplace(m.name, std::move(m));
    }
  }
  return snap;
}

std::uint64_t RegistrySnapshot::counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value;
}

double RegistrySnapshot::histogram_quantile_since(
    const RegistrySnapshot& before, std::string_view name, double q) const {
  const auto now = histograms_.find(name);
  if (now == histograms_.end()) return 0.0;
  const auto then = before.histograms_.find(name);
  std::vector<std::uint64_t> delta = now->second.buckets;
  if (then != before.histograms_.end()) {
    for (std::size_t i = 0; i < then->second.buckets.size() && i < delta.size();
         ++i) {
      delta[i] -= then->second.buckets[i];
    }
  }
  std::uint64_t total = 0;
  for (const std::uint64_t c : delta) total += c;
  if (total == 0) return 0.0;
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total))));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < delta.size(); ++i) {
    if (delta[i] == 0) continue;
    if (cumulative + delta[i] < rank) {
      cumulative += delta[i];
      continue;
    }
    const double lo =
        static_cast<double>(obs::Histogram::bucket_lower_bound(i));
    const double hi =
        static_cast<double>(obs::Histogram::bucket_upper_bound(i));
    const double inside = static_cast<double>(rank - cumulative - 1) /
                          static_cast<double>(delta[i]);
    return std::min(lo + (hi - lo) * inside,
                    static_cast<double>(now->second.max));
  }
  return static_cast<double>(now->second.max);
}

std::vector<Metric> layer_metrics(const Workload& workload,
                                  const TracedRun& run) {
  const Phase& traced = *run.traced;
  const bool http = workload.http();
  const std::vector<std::string> requests = workload.sample_requests();
  const std::vector<std::string> responses = workload.sample_responses();
  const ProtocolTimes protocol = time_protocol(requests, responses);
  const FrontDoorTimes door =
      http ? time_front_door(requests, responses) : FrontDoorTimes{};
  const EngineTimes engine = time_engine(workload.engine_requests());

  const auto delta = [&](std::string_view name) {
    return static_cast<double>(run.after.counter(name) -
                               run.before.counter(name));
  };
  const auto hist_us = [&](std::string_view name, double q) {
    return run.after.histogram_quantile_since(run.before, name, q) / 1e3;
  };
  const auto ratio = [](double part, double whole) {
    return whole > 0.0 ? part / whole : 0.0;
  };

  std::vector<Metric> out;
  const auto put = [&](std::string name, double value, std::string unit) {
    out.push_back({std::move(name), value, std::move(unit)});
  };

  // Front door (HTTP workloads): client-side splits and in-process calls.
  const double hit_p50 = median(traced.hit_latency_us);
  const double connect = median(traced.connect_us);
  put("http.connect_us", connect, "us");
  put("http.server_us", median(traced.server_us), "us");
  put("http.parse_us", door.http_parse_us, "us");
  put("http.serialize_us", door.serialize_us, "us");
  put("http.residue_us",
      http ? hit_p50 - door.handle_us - door.http_parse_us - door.serialize_us
           : 0.0,
      "us");
  put("protocol.parse_us", protocol.parse_us, "us");
  put("protocol.frame_us", protocol.frame_us, "us");
  put("gateway.handle_us", door.handle_us, "us");
  put("gateway.canonical_us", door.canonical_us, "us");
  put("gateway.lookup_us", door.lookup_us, "us");
  put("gateway.insert_us", door.insert_us, "us");
  const double hits = delta("service.cache_hits");
  put("gateway.hit_ratio", ratio(hits, hits + delta("service.cache_misses")),
      "ratio");
  put("gateway.evictions", delta("service.cache_evictions"), "count");
  put("gateway.shed", delta("service.shed"), "count");

  // Executor: admission gate and job pools.
  const double queue_p50 = hist_us("engine.queue_wait_ns", 0.5);
  const double run_p50 = hist_us("engine.run_ns", 0.5);
  put("executor.queue_wait_us.p50", queue_p50, "us");
  put("executor.queue_wait_us.p99", hist_us("engine.queue_wait_ns", 0.99),
      "us");
  put("executor.run_us.p50", run_p50, "us");
  put("executor.run_us.p99", hist_us("engine.run_ns", 0.99), "us");
  put("executor.admitted", delta("engine.admitted"), "count");
  put("pool.task_wait_us", hist_us("pool.task_wait_ns", 0.5), "us");
  put("pool.serial_fallback", delta("pool.serial_fallback"), "count");

  // Graph generators and algorithms (requests that reach the engine).
  for (const std::string& type : graph_types()) {
    const auto it = engine.build_us.find(type);
    put("graph.build_us." + type,
        it == engine.build_us.end() ? 0.0 : median(it->second), "us");
  }
  for (const char* name : {"connectivity", "coloring", "mis", "lifting",
                           "sensitivity", "mpc_native"}) {
    const auto it = engine.algo.find(name);
    const AlgoTimes none;
    const AlgoTimes& algo = it == engine.algo.end() ? none : it->second;
    const std::string prefix = std::string("algo.") + name;
    put(prefix + ".wall_us", median(algo.wall_us), "us");
    put(prefix + ".rounds", algo.rounds, "count");
    put(prefix + ".words", algo.words, "count");
  }

  // MPC substrate: exchange, batching, arena (traced phase deltas).
  const double reuses = delta("cluster.arena_reuses");
  put("mpc.exchanges", delta("cluster.exchanges"), "count");
  put("mpc.words", delta("cluster.words"), "count");
  put("mpc.engine_calls", delta("batching.engine_calls"), "count");
  put("mpc.logical_rounds", delta("batching.logical_rounds"), "count");
  put("mpc.saved_dispatches", delta("batching.saved_dispatches"), "count");
  put("mpc.arena_reuse_ratio",
      ratio(reuses, reuses + delta("cluster.arena_allocs")), "ratio");
  put("mpc.ns_per_word", ratio(engine.native_wall_ns, engine.native_words),
      "ns/word");

  // Trace streaming.
  put("obs.trace_events", delta("service.trace_events"), "count");
  put("obs.stream_overhead_us", run.stream_overhead_us, "us");

  // Validity of the benchmark itself.
  std::vector<double> late;
  for (const Sample& s : traced.load.samples) late.push_back(s.late_us);
  put("loadgen.late_p99_us",
      run.open_loop ? tail_percentile(late, 0.99).value : 0.0, "us");
  const std::vector<double> latencies = traced.load.latencies_us();
  std::vector<double> builds;
  for (const auto& [type, us] : engine.build_us) {
    builds.insert(builds.end(), us.begin(), us.end());
  }
  const double explained =
      http ? connect + door.http_parse_us + door.handle_us + door.serialize_us
           : protocol.parse_us + median(builds) + queue_p50 + run_p50 +
                 protocol.frame_us;
  put("e2e.unexplained_us", (http ? hit_p50 : median(latencies)) - explained,
      "us");
  const double untraced_p50 = median(run.untraced->load.latencies_us());
  put("tracing_overhead_pct",
      100.0 * ratio(median(latencies) - untraced_p50, untraced_p50), "%");
  put("fail_ratio", run.fail_ratio, "ratio");
  put("latency.samples", static_cast<double>(latencies.size()), "count");
  return out;
}

}  // namespace perfbench
