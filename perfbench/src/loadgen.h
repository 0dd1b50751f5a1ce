// Load-generation primitives of the benchmark, free of sockets and of the
// library: seeded randomness, the tail-percentile rule, Poisson arrival
// schedules, a Zipf key sampler, and the closed- and open-loop runners that
// time a caller-supplied request function.
//
// Timing conventions:
//  * closed loop: each client sends its next request only after the previous
//    one completed; latency runs from the send to the completion.
//  * open loop: requests have due times fixed in advance (the schedule);
//    latency runs from the *due* time to the completion, so a stalled
//    responder that delays later sends shows up in their latency, and
//    `late_us` records how far past due the generator actually sent.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// splitmix64 finalizer: a bijection on 64-bit words, so distinct inputs
/// give distinct outputs.
std::uint64_t mix64(std::uint64_t x);

/// Deterministic stream of 64-bit words (splitmix64).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();                          ///< in [0, 1)
  std::uint64_t below(std::uint64_t bound);  ///< in [0, bound), bound > 0

 private:
  std::uint64_t state_;
};

/// A tail percentile and the evidence behind it.
struct Tail {
  double value = 0.0;       ///< the latency at that percentile
  double q = 0.0;           ///< the percentile actually reported (<= q_max)
  std::size_t samples = 0;  ///< how many samples it was read from
};

/// Nearest-rank percentile q of an ascending vector (q in (0, 1]).
double nearest_rank(const std::vector<double>& sorted, double q);

/// The highest percentile no higher than `q_max` that still has at least
/// `min_beyond` samples strictly above its rank. With fewer than
/// min_beyond + 1 samples no percentile qualifies and the maximum is
/// reported with q = 1.
Tail tail_percentile(std::vector<double> samples, double q_max,
                     std::size_t min_beyond = 10);

/// Median (nearest rank) of an unsorted sample; 0 when empty.
double median(std::vector<double> samples);

/// Due-time offsets of a Poisson arrival process at `rate_per_s` over
/// `seconds`, starting at offset 0.
std::vector<Clock::duration> poisson_schedule(double rate_per_s,
                                              double seconds,
                                              std::uint64_t seed);

/// Samples ranks in [0, n) with P(r) proportional to 1 / (r + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);
  std::size_t sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Runs fn(i) for every i in [0, n) on `threads` threads (claimed in
/// index order) and joins them.
void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t i)>& fn);

/// One timed request, kept compact: a phase stores every one of them, and
/// that storage shares the process (and rss_peak_mb) with the server.
struct Sample {
  float latency_us = 0.0f;
  float late_us = 0.0f;  ///< open loop only: send start minus due time
  bool ok = false;
};

/// Outcome of one load phase.
struct LoadResult {
  std::vector<Sample> samples;
  double elapsed_s = 0.0;  ///< phase start to last completion
  /// Peak RSS of the process when the load ended, before the runner
  /// gathers the per-thread samples into `samples` (a copy that would
  /// otherwise dominate the peak).
  double rss_peak_mb = 0.0;

  std::uint64_t failed() const;
  std::vector<double> latencies_us() const;  ///< successful requests only
  double throughput_rps() const;  ///< successful requests per second
};

/// Closed loop: `clients` threads each call `send(client, k)` for
/// k = 0, 1, ... back to back until `seconds` have elapsed (a request in
/// flight at the deadline completes and is counted).
LoadResult run_closed_loop(
    unsigned clients, double seconds,
    const std::function<bool(unsigned client, std::uint64_t k)>& send);

/// Open loop: `threads` workers claim schedule entries in due order, wait
/// for each entry's due time and call `send(i)`. Latency is timed from the
/// due time (see the header comment).
LoadResult run_open_loop(const std::vector<Clock::duration>& schedule,
                         unsigned threads,
                         const std::function<bool(std::size_t i)>& send);

}  // namespace perfbench
