// skyferry_perfbench — runs one workload for a fixed wall-clock budget
// and prints every metric it measured as
//
//   metric <name> <value> <unit>
//
// followed by `result correct=<0|1> attempted=<ops> failed=<ops>`.
// perfbench/run.py builds this binary, runs it and turns those lines
// into the benchmark's JSON result.
//
//   skyferry_perfbench --workload fleet_wifi --seed 7 --seconds 10 [--trace 1]
//       [--trace-out spans.jsonl]
//   skyferry_perfbench --self-test
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <sched.h>

#include "workload.h"

#ifndef SKYFERRY_PERFBENCH_BUILD_TYPE
#define SKYFERRY_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void expect_digest(RunResult& r, const std::string& digest, std::uint64_t pass_ops,
                   const char* what) {
  if (r.digest.empty()) {
    r.digest = digest;
  } else if (digest != r.digest) {
    r.checks.fail(pass_ops, std::string("digest of a ") + what + " (" + digest +
                                ") differs from the first pass (" + r.digest + ")");
  }
}

std::vector<int> copy_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE && cpus.size() < kMaxCopies; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  if (cpus.empty()) cpus.push_back(-1);
  return cpus;
}

void on_cpus(const std::vector<int>& cpus, const std::function<void(std::size_t)>& fn) {
  std::vector<std::exception_ptr> errors(cpus.size());
  std::vector<std::thread> threads;
  threads.reserve(cpus.size());
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    threads.emplace_back([&, i] {
      try {
        if (cpus[i] >= 0) {
          cpu_set_t one;
          CPU_ZERO(&one);
          CPU_SET(cpus[i], &one);
          // A copy that cannot be pinned still measures, unpinned.
          (void)pthread_setaffinity_np(pthread_self(), sizeof one, &one);
        }
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

namespace {

void print_metric(const std::string& name, double value, const std::string& unit) {
  std::printf("metric %s %.17g %s\n", name.c_str(), value, unit.c_str());
}

// VmHWM of this process image. getrusage's ru_maxrss would also count
// the parent's pages the forked child held before exec.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kib / 1024.0;
}

int usage() {
  std::fprintf(stderr,
               "usage: skyferry_perfbench --workload <fleet_wifi|fleet_multilink_chaos|"
               "mc_campaign|decide_stream> --seed <n> --seconds <s> [--trace 0|1] "
               "[--trace-out <path>]\n"
               "       skyferry_perfbench --self-test\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") {
      const int failures = run_selftest();
      std::printf("self-test: %s (%d failed)\n", failures == 0 ? "ok" : "FAILED", failures);
      return failures == 0 ? 0 : 1;
    }
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--trace-out") {
      opt.trace_out = v;
    } else {
      return usage();
    }
  }
  if (!(opt.seconds > 0.0)) return usage();

  RunResult r;
  try {
    if (opt.workload == "fleet_wifi") {
      r = run_fleet_wifi(opt);
    } else if (opt.workload == "fleet_multilink_chaos") {
      r = run_fleet_multilink_chaos(opt);
    } else if (opt.workload == "mc_campaign") {
      r = run_mc_campaign(opt);
    } else if (opt.workload == "decide_stream") {
      r = run_decide_stream(opt);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "skyferry_perfbench: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }

  std::printf(
      "# perfbench workload=%s seed=%llu seconds=%g trace=%d threads=%d copies=%d build=%s\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
      opt.trace ? 1 : 0, r.threads, r.copies, SKYFERRY_PERFBENCH_BUILD_TYPE);
  // Every pass (or window) of a run repeats identical work with
  // bit-identical outputs, so the variation between them is the shared
  // machine's, not the program's: the fastest is the least disturbed
  // measurement.
  const double untraced = best_rate(r.untraced_rates);
  print_metric("setup_s", median(r.setup_s), "s");
  print_metric("ops_per_s", untraced, "ops/s");
  print_metric("peak_rss_mb", peak_rss_mb(), "MB");
  print_metric("ops", static_cast<double>(r.ops), "count");
  print_metric("ops_failed", static_cast<double>(r.checks.failed), "count");
  for (const Metric& m : r.extra) print_metric(m.name, m.value, m.unit);
  std::printf("# setups=%zu untraced_windows=%zu traced_windows=%zu\n# window ops/s:",
              r.setup_s.size(), r.untraced_rates.size(), r.traced_rates.size());
  for (const double v : r.untraced_rates) std::printf(" %.6g", v);
  std::printf("\n");
  if (opt.trace) {
    for (const Metric& m : r.layer) print_metric(m.name, m.value, m.unit);
    const double traced = best_rate(r.traced_rates);
    print_metric("trace.ops_per_s", traced, "ops/s");
    print_metric("trace.overhead_ops_per_s", untraced - traced, "ops/s");
    print_metric("trace.overhead_frac", untraced > 0.0 ? (untraced - traced) / untraced : 0.0,
                 "1");
  }
  std::printf("digest %s\n", r.digest.c_str());
  for (const std::string& m : r.checks.messages) std::printf("check-failed %s\n", m.c_str());
  const bool correct = r.checks.failed == 0 && r.ops > 0;
  std::printf("result correct=%d attempted=%llu failed=%llu\n", correct ? 1 : 0,
              static_cast<unsigned long long>(r.ops),
              static_cast<unsigned long long>(r.checks.failed));
  return correct ? 0 : 1;
}
