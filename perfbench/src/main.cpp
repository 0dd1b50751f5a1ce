// perfbench: the repository's end-to-end benchmark program (README.md).
//
//   perfbench --workload <hit_storm|cold_mix|zipf_mix> --seed <n>
//             --seconds <s> --trace <0|1>
//   perfbench --workload zipf_mix --seed <n> --seconds <s> --capacity
//
// Sets the workload up five times (setup_s is the median), measures the
// load in three consecutive thirds (--trace 0: the end-to-end metrics, each
// the median third) or as a traced half between two untraced quarters
// (--trace 1: the per-layer ledger and the tracing overhead), checks every
// response, and prints a host fingerprint line followed by one JSON result
// line:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
#include <unistd.h>

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ledger.h"
#include "loadgen.h"
#include "mpc/transport.h"
#include "service/executor.h"
#include "support/thread_pool.h"
#include "workloads.h"

using namespace perfbench;

namespace {

constexpr int kSetups = 5;
constexpr int kThirds = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool capacity = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <hit_storm|cold_mix|zipf_mix> "
               "--seed <n> --seconds <s> --trace <0|1> [--capacity]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--capacity") {
      args.capacity = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (!(args.seconds > 0.0 && args.seconds <= 120.0)) {
        usage("--seconds must be in (0, 120]");
      }
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
    } else {
      usage("unknown flag " + flag);
    }
    if (end != nullptr && *end != '\0') usage("bad number for " + flag);
  }
  if (!have_workload) usage("--workload is required");
  return args;
}

std::string number(double value) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, end);
}

void print_fingerprint(const Args& args) {
  std::cout << "# perfbench host: nproc=" << sysconf(_SC_NPROCESSORS_ONLN)
            << " compiler=\"GCC " << __VERSION__ << "\""
            << " build=" << PERFBENCH_BUILD_TYPE
            << " transport=" << mpcstab::transport_name()
            << " global_threads=" << mpcstab::global_threads()
            << " max_engines=" << mpcstab::service::max_concurrent_engines()
            << " workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << number(args.seconds)
            << " trace=" << (args.trace ? 1 : 0)
            << " zipf_offered_rps=" << number(zipf_offered_rps()) << "\n";
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ',';
    out += "\"" + metrics[i].name + "\":{\"value\":" +
           number(metrics[i].value) + ",\"unit\":\"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

int run(const Args& args) {
  print_fingerprint(args);
  if (args.capacity) {
    if (args.workload != "zipf_mix") usage("--capacity is for zipf_mix");
    std::cout << "# zipf_mix closed-loop capacity: "
              << number(zipf_capacity_rps(args.seed, args.seconds))
              << " req/s\n";
    return 0;
  }
  std::unique_ptr<Workload> workload = make_workload(args.workload, args.seed);
  if (!workload) usage("unknown workload " + args.workload);

  // Set-up (server start, prefill, warm-up, validation) several times; the
  // last server is the one measured.
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point t0 = Clock::now();
    workload->setup();
    setups.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }

  Checks checks;
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0, failed = 0;
  if (!args.trace) {
    // Consecutive thirds of the run, each summarised on its own; the
    // reported figure is the median third, so a burst of host noise inside
    // one third (which would own a whole-run p99) does not move it.
    // The thirds run back to back, before any statistics, so the process
    // peak RSS at the end of the last one is the peak under load.
    std::vector<Phase> thirds;
    for (int i = 0; i < kThirds; ++i) {
      thirds.push_back(workload->run(args.seconds / kThirds, false));
    }
    std::vector<double> throughput, p50, p99;
    std::cout << "# latency per third:";
    for (const Phase& phase : thirds) {
      const std::vector<double> latencies = phase.load.latencies_us();
      const Tail tail = tail_percentile(latencies, 0.99);
      throughput.push_back(phase.load.throughput_rps());
      p50.push_back(median(latencies));
      p99.push_back(tail.value);
      attempted += phase.load.samples.size();
      failed += phase.load.failed();
      std::cout << " samples=" << tail.samples
                << " tail_percentile=" << number(tail.q);
    }
    std::cout << "\n";
    workload->verify(checks);
    failed += checks.wrong;
    metrics = {
        {"setup_s", median(setups), "s"},
        {"throughput_rps", median(throughput), "1/s"},
        {"latency_p50_us", median(p50), "us"},
        {"latency_p99_us", median(p99), "us"},
        {"rss_peak_mb", thirds.back().load.rss_peak_mb, "MB"},
    };
  } else {
    // Untraced quarters before and after the traced half (A-B-A), so a
    // drift in host speed over the run cancels out of the overhead.
    TracedRun traced;
    Phase untraced = workload->run(args.seconds / 4, /*traced=*/false);
    traced.before = RegistrySnapshot::take();
    const Phase measured = workload->run(args.seconds / 2, /*traced=*/true);
    traced.after = RegistrySnapshot::take();
    untraced.append(workload->run(args.seconds / 4, /*traced=*/false));
    traced.stream_overhead_us = workload->stream_overhead_us();
    workload->verify(checks);
    attempted = untraced.load.samples.size() + measured.load.samples.size();
    failed = untraced.load.failed() + measured.load.failed() + checks.wrong;
    traced.untraced = &untraced;
    traced.traced = &measured;
    traced.fail_ratio =
        static_cast<double>(failed) / static_cast<double>(attempted);
    traced.open_loop = args.workload == "zipf_mix";
    metrics = layer_metrics(*workload, traced);
  }
  workload->teardown();
  for (const std::string& problem : checks.problems) {
    std::cerr << "perfbench: check failed: " << problem << "\n";
  }
  const bool correct = failed == 0 && checks.problems.empty();
  print_result(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
