// The per-layer ledger of a traced run. It combines three sources, none of
// which needs a span inside the library:
//
//  * client-side splits of every exchange of the traced load phase
//    (connect, server turnaround, latency of hits, lateness);
//  * deltas of the counters and histograms the program already publishes
//    in obs::Registry::global(), taken around the traced load phase;
//  * in-process timings of each layer's public functions, called from the
//    benchmark on the workload's own requests and responses after the load
//    (HttpRequestParser, parse_request, canonical_request, ResultCache,
//    Gateway::handle, HttpResponse::serialize, JsonObject framing,
//    build_graph, execute_on on a benchmark-owned traced Cluster).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/registry.h"
#include "workloads.h"

namespace perfbench {

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The global registry at one instant, keyed by name.
class RegistrySnapshot {
 public:
  static RegistrySnapshot take();

  /// Counter value (0 when absent).
  std::uint64_t counter(std::string_view name) const;

  /// Quantile q of the observations histogram `name` received between
  /// `before` and this snapshot, estimated from the pow2 bucket deltas the
  /// way obs::Histogram::quantile does (0 when there were none).
  double histogram_quantile_since(const RegistrySnapshot& before,
                                  std::string_view name, double q) const;

 private:
  std::map<std::string, mpcstab::obs::MetricSample, std::less<>> counters_;
  std::map<std::string, mpcstab::obs::MetricSample, std::less<>> histograms_;
};

/// Inputs of one traced run's ledger.
struct TracedRun {
  const Phase* untraced = nullptr;  ///< the run's untraced load phase
  const Phase* traced = nullptr;    ///< the traced load phase
  RegistrySnapshot before, after;   ///< around the traced phase
  double stream_overhead_us = 0.0;
  double fail_ratio = 0.0;
  bool open_loop = false;
};

/// Every per-layer metric of the traced run, in a fixed order; layers the
/// workload does not cross read 0.
std::vector<Metric> layer_metrics(const Workload& workload,
                                  const TracedRun& run);

}  // namespace perfbench
