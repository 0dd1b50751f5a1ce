// Tests of the benchmark itself: the tail-percentile rule, open-loop
// due-time accounting, deterministic key streams, the oracles, and the
// shape invariants each workload promises (on short live runs).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <thread>

#include "loadgen.h"
#include "obs/registry.h"
#include "service/gateway.h"
#include "service/protocol.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace svc = mpcstab::service;

std::uint64_t counter(const char* name) {
  return mpcstab::obs::Registry::global().counter(name).value();
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

// ---- percentile rule -------------------------------------------------------

TEST(TailPercentile, ReportsP99WhenTenSamplesLieBeyondIt) {
  const Tail tail = tail_percentile(one_to(1000), 0.99);
  EXPECT_EQ(tail.value, 990.0);
  EXPECT_DOUBLE_EQ(tail.q, 0.99);
  EXPECT_EQ(tail.samples, 1000u);
}

TEST(TailPercentile, StepsDownWhenTooFewSamplesLieBeyond) {
  // 999 samples: the p99 rank (990) leaves only 9 beyond it.
  const Tail tail = tail_percentile(one_to(999), 0.99);
  EXPECT_EQ(tail.value, 989.0);
  EXPECT_LT(tail.q, 0.99);
  EXPECT_DOUBLE_EQ(tail.q, 989.0 / 999.0);
}

TEST(TailPercentile, AlwaysLeavesAtLeastTenBeyond) {
  Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 11 + rng.below(5000);
    std::vector<double> v = one_to(n);
    std::reverse(v.begin(), v.end());  // the rule must sort
    const Tail tail = tail_percentile(v, 0.99);
    const auto beyond = static_cast<std::size_t>(std::count_if(
        v.begin(), v.end(), [&](double x) { return x > tail.value; }));
    EXPECT_GE(beyond, 10u) << "n=" << n;
    EXPECT_LE(tail.q, 0.99);
  }
}

TEST(TailPercentile, TooFewSamplesReportTheMaximum) {
  const Tail tail = tail_percentile(one_to(10), 0.99);
  EXPECT_EQ(tail.value, 10.0);
  EXPECT_EQ(tail.q, 1.0);
}

TEST(Median, NearestRank) {
  EXPECT_EQ(median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.0);
  EXPECT_EQ(median({}), 0.0);
}

// ---- open-loop due-time accounting -----------------------------------------

TEST(OpenLoop, StalledResponderShowsInLatencyAndLateness) {
  // One request due every millisecond; request 50 stalls for 60 ms. With
  // one worker, every request due during the stall is sent late and its
  // latency, timed from its due time, carries the wait.
  std::vector<Clock::duration> schedule;
  for (int i = 0; i < 200; ++i) {
    schedule.push_back(std::chrono::milliseconds(i));
  }
  const LoadResult result = run_open_loop(schedule, 1, [](std::size_t i) {
    if (i == 50) std::this_thread::sleep_for(std::chrono::milliseconds(60));
    return true;
  });
  ASSERT_EQ(result.samples.size(), 200u);
  EXPECT_GE(result.samples[50].latency_us, 60000.0);
  EXPECT_GE(result.samples[51].late_us, 50000.0);
  EXPECT_GE(result.samples[51].latency_us, 50000.0);
  std::size_t delayed = 0;
  std::vector<double> late;
  for (const Sample& s : result.samples) {
    delayed += s.latency_us > 20000.0 ? 1 : 0;
    late.push_back(s.late_us);
  }
  // Requests 50..~89 were due before the stall ended.
  EXPECT_GE(delayed, 30u);
  EXPECT_GE(tail_percentile(late, 0.99).value, 20000.0);
  EXPECT_EQ(result.failed(), 0u);
}

TEST(OpenLoop, ClosedLoopWouldHideTheStall) {
  // Contrast: the closed loop times from the send, so only the stalled
  // request itself is slow.
  const LoadResult result =
      run_closed_loop(1, 0.2, [](unsigned, std::uint64_t k) {
        if (k == 5) std::this_thread::sleep_for(std::chrono::milliseconds(60));
        return true;
      });
  std::size_t slow = 0;
  for (const Sample& s : result.samples) slow += s.latency_us > 20000.0 ? 1 : 0;
  EXPECT_EQ(slow, 1u);
}

TEST(PoissonSchedule, DeterministicAndAtTheRequestedRate) {
  const auto a = poisson_schedule(1000.0, 5.0, 9);
  const auto b = poisson_schedule(1000.0, 5.0, 9);
  const auto c = poisson_schedule(1000.0, 5.0, 10);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NEAR(static_cast<double>(a.size()), 5000.0, 300.0);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
}

// ---- deterministic key streams ---------------------------------------------

TEST(KeyStreams, SameSeedSameStream) {
  EXPECT_EQ(zipf_rank_stream(7, 5000), zipf_rank_stream(7, 5000));
  EXPECT_NE(zipf_rank_stream(7, 5000), zipf_rank_stream(8, 5000));
  EXPECT_EQ(zipf_key_seed(7, 123), zipf_key_seed(7, 123));
  EXPECT_NE(zipf_key_seed(7, 123), zipf_key_seed(8, 123));
  EXPECT_EQ(cold_request_seed(7, 2, 99), cold_request_seed(7, 2, 99));
  EXPECT_NE(cold_request_seed(7, 2, 99), cold_request_seed(8, 2, 99));
  const auto u7 = hit_universe(7);
  const auto u7b = hit_universe(7);
  const auto u8 = hit_universe(8);
  ASSERT_EQ(u7.size(), 64u);
  for (std::size_t i = 0; i < u7.size(); ++i) {
    EXPECT_EQ(u7[i].render(), u7b[i].render());
    EXPECT_NE(u7[i].render(), u8[i].render());
  }
}

TEST(KeyStreams, ZipfStreamIsHeadHeavyOverTheWholeUniverse) {
  const std::vector<std::uint32_t> ranks = zipf_rank_stream(3, 200000);
  const auto head = std::count(ranks.begin(), ranks.end(), 0u);
  const auto second = std::count(ranks.begin(), ranks.end(), 1u);
  EXPECT_GT(head, second);
  EXPECT_GT(*std::max_element(ranks.begin(), ranks.end()), 30000u);
}

TEST(KeyStreams, ColdSeedsAreUniqueAcrossConnectionsAndRequests) {
  std::set<std::uint64_t> seeds;
  for (unsigned c = 0; c < 6; ++c) {
    for (std::uint64_t k = 0; k < 5000; ++k) {
      const std::uint64_t seed = cold_request_seed(11, c, k);
      EXPECT_LT(seed, std::uint64_t{1} << 53);
      EXPECT_TRUE(seeds.insert(seed).second);
    }
  }
}

TEST(KeyStreams, VariantsShareTheCanonicalRequest) {
  Rng rng(5);
  for (const RequestDoc& doc : hit_universe(21)) {
    const svc::ParsedRequest base = svc::parse_request(doc.render());
    ASSERT_TRUE(base.request.has_value()) << doc.render();
    for (int v = 0; v < 8; ++v) {
      const std::string text = doc.render_variant(rng, 1000 + v);
      const svc::ParsedRequest variant = svc::parse_request(text);
      ASSERT_TRUE(variant.request.has_value()) << text;
      EXPECT_EQ(svc::canonical_request(*variant.request),
                svc::canonical_request(*base.request))
          << text;
    }
  }
}

// ---- oracles ---------------------------------------------------------------

TEST(Oracle, RejectsWrongComponentCountsAndErrors) {
  const Shape& cycle = cheap_shapes()[0];  // connectivity on one cycle
  ASSERT_EQ(std::string(cycle.graph_type), "cycle");
  const std::string good =
      R"({"event":"result","ok":true,"op":"connectivity","rounds":1,)"
      R"("words":0,"metrics":[],"answer":{"components":1,"converged":true,)"
      R"("iterations":3}})";
  EXPECT_EQ(check_result(cycle, 5, good), "");
  std::string wrong = good;
  wrong.replace(wrong.find("\"components\":1"), 14, "\"components\":2");
  EXPECT_NE(check_result(cycle, 5, wrong), "");
  EXPECT_NE(check_result(cycle, 5,
                         R"({"event":"error","kind":"SpaceLimitError",)"
                         R"("message":"x"})"),
            "");
  EXPECT_NE(check_result(cycle, 5, "not json"), "");
}

// ---- workload shapes on short live runs ------------------------------------

TEST(WorkloadShape, HitStormIsAllHitsAndNeverAdmitsAnEngineJob) {
  auto workload = make_workload("hit_storm", 3);
  ASSERT_NE(workload, nullptr);
  workload->setup();
  const std::uint64_t admitted = counter("engine.admitted");
  const Phase phase = workload->run(0.5, /*traced=*/true);
  Checks checks;
  workload->verify(checks);
  EXPECT_TRUE(checks.problems.empty()) << checks.problems.front();
  EXPECT_GT(phase.load.samples.size(), 100u);
  EXPECT_EQ(phase.load.failed(), 0u);
  EXPECT_EQ(phase.hits, phase.load.samples.size());  // hit ratio = 1
  EXPECT_EQ(phase.misses, 0u);
  EXPECT_EQ(counter("engine.admitted"), admitted);
  EXPECT_EQ(phase.connect_us.size(), phase.load.samples.size());
}

TEST(WorkloadShape, ZipfMixBothHitsAndMissesAndEvicts) {
  auto workload = make_workload("zipf_mix", 3);
  workload->setup();
  const std::uint64_t evictions = counter("service.cache_evictions");
  const Phase phase = workload->run(1.0, /*traced=*/false);
  Checks checks;
  workload->verify(checks);
  EXPECT_TRUE(checks.problems.empty()) << checks.problems.front();
  EXPECT_EQ(phase.load.failed(), 0u);
  EXPECT_GT(phase.hits, 0u);
  EXPECT_GT(phase.misses, 0u);  // 0 < hit ratio < 1
  EXPECT_GT(counter("service.cache_evictions"), evictions);
}

TEST(WorkloadShape, ColdMixRequestsAreAllUniqueAndChecked) {
  auto workload = make_workload("cold_mix", 3);
  workload->setup();
  const Phase first = workload->run(0.6, /*traced=*/false);
  const Phase second = workload->run(0.6, /*traced=*/false);
  Checks checks;
  workload->verify(checks);  // includes the unique-seed check across phases
  EXPECT_TRUE(checks.problems.empty()) << checks.problems.front();
  EXPECT_EQ(checks.wrong, 0u);
  EXPECT_GT(first.load.samples.size() + second.load.samples.size(), 20u);
  EXPECT_EQ(first.load.failed() + second.load.failed(), 0u);
}

}  // namespace
}  // namespace perfbench
