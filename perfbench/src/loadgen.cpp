#include "loadgen.h"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>

namespace perfbench {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t Rng::next() {
  state_ += 0x9e3779b97f4a7c15ull;
  return mix64(state_);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  // Lemire's multiply-shift; the tiny bias is irrelevant for load shapes.
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(next()) * bound) >> 64);
}

double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

Tail tail_percentile(std::vector<double> samples, double q_max,
                     std::size_t min_beyond) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  if (n <= min_beyond) {
    tail.value = samples.back();
    tail.q = 1.0;
    return tail;
  }
  // Nearest rank r of q_max leaves n - r samples beyond it; when that is
  // fewer than min_beyond, step down to the rank that leaves exactly that.
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q_max * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n - min_beyond);
  tail.value = samples[rank - 1];
  tail.q = std::min(q_max, static_cast<double>(rank) / static_cast<double>(n));
  return tail;
}

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return nearest_rank(samples, 0.5);
}

std::vector<Clock::duration> poisson_schedule(double rate_per_s,
                                              double seconds,
                                              std::uint64_t seed) {
  if (!(rate_per_s > 0.0)) throw std::invalid_argument("rate must be > 0");
  Rng rng(seed);
  std::vector<Clock::duration> schedule;
  schedule.reserve(static_cast<std::size_t>(rate_per_s * seconds * 1.1) + 16);
  double t = 0.0;
  while (true) {
    // Exponential gap; 1 - u lies in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.uniform()) / rate_per_s;
    if (t >= seconds) break;
    schedule.push_back(std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(t)));
  }
  return schedule;
}

ZipfSampler::ZipfSampler(std::size_t n, double s) : cdf_(n) {
  if (n == 0) throw std::invalid_argument("empty Zipf universe");
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfSampler::sample(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
}

void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t i)>& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::jthread> workers;
  workers.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        fn(i);
      }
    });
  }
}

std::uint64_t LoadResult::failed() const {
  return static_cast<std::uint64_t>(std::count_if(
      samples.begin(), samples.end(), [](const Sample& s) { return !s.ok; }));
}

std::vector<double> LoadResult::latencies_us() const {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) {
    if (s.ok) out.push_back(s.latency_us);
  }
  return out;
}

double LoadResult::throughput_rps() const {
  if (elapsed_s <= 0.0) return 0.0;
  return static_cast<double>(samples.size() - failed()) / elapsed_s;
}

namespace {

double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

LoadResult run_closed_loop(
    unsigned clients, double seconds,
    const std::function<bool(unsigned client, std::uint64_t k)>& send) {
  std::vector<std::vector<Sample>> per_client(clients);
  std::vector<Clock::time_point> finished(clients);
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  {
    std::vector<std::jthread> threads;
    threads.reserve(clients);
    for (unsigned c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        std::vector<Sample>& out = per_client[c];
        // Address space only: pages become resident as samples land, and
        // the vector never reallocates (which would double its footprint).
        out.reserve(static_cast<std::size_t>(seconds * 100000.0) + 1024);
        Clock::time_point now = Clock::now();
        for (std::uint64_t k = 0; now < stop; ++k) {
          Sample sample;
          sample.ok = send(c, k);
          const Clock::time_point done = Clock::now();
          sample.latency_us = static_cast<float>(micros(done - now));
          out.push_back(sample);
          now = done;
        }
        finished[c] = now;
      });
    }
  }
  LoadResult result;
  result.rss_peak_mb = peak_rss_mb();
  for (unsigned c = 0; c < clients; ++c) {
    result.samples.insert(result.samples.end(), per_client[c].begin(),
                          per_client[c].end());
    result.elapsed_s = std::max(
        result.elapsed_s,
        std::chrono::duration<double>(finished[c] - start).count());
  }
  return result;
}

LoadResult run_open_loop(const std::vector<Clock::duration>& schedule,
                         unsigned threads,
                         const std::function<bool(std::size_t i)>& send) {
  LoadResult result;
  result.samples.resize(schedule.size());
  std::atomic<std::size_t> next{0};
  std::atomic<Clock::rep> last_done{0};
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::jthread> workers;
    workers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&] {
        // Wake at the due time, not up to the default 50 µs timer slack
        // after it: the slack would read as lateness and as latency.
        prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
        Clock::time_point done = start;
        for (std::size_t i = next.fetch_add(1); i < schedule.size();
             i = next.fetch_add(1)) {
          const Clock::time_point due = start + schedule[i];
          std::this_thread::sleep_until(due);
          const Clock::time_point sent = Clock::now();
          Sample& sample = result.samples[i];
          sample.ok = send(i);
          done = Clock::now();
          sample.latency_us = static_cast<float>(micros(done - due));
          sample.late_us = static_cast<float>(micros(sent - due));
        }
        const Clock::rep mine = (done - start).count();
        Clock::rep seen = last_done.load();
        while (mine > seen && !last_done.compare_exchange_weak(seen, mine)) {
        }
      });
    }
  }
  result.elapsed_s =
      std::chrono::duration<double>(Clock::duration(last_done.load())).count();
  result.rss_peak_mb = peak_rss_mb();
  return result;
}

}  // namespace perfbench
