/// perfbench: the repository benchmark's measuring binary.
///
///   perfbench --workload offline-fit|stream-refresh|serve-mixed --seed N
///             --seconds S --trace 0|1 [--server PATH] [--trace-dir DIR]
///             [--commit ID]
///
/// Prints a `perfbench-info` line (run metadata and workload-only figures)
/// and then, as the last line, the result object
/// {"correct", "attempted", "failed", "metrics"}. It refuses to measure a
/// build that is not Release. perfbench/run.py builds and invokes it.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/sweep/simd.h"
#include "perfbench/src/workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int Usage(const char* message) {
  std::fprintf(stderr, "perfbench: %s\n", message);
  std::fprintf(stderr,
               "usage: perfbench --workload offline-fit|stream-refresh|serve-mixed "
               "--seed N --seconds S --trace 0|1 [--server PATH] "
               "[--trace-dir DIR] [--commit ID]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string commit = "unknown";
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = value == "1" ? 1 : value == "0" ? 0 : -1;
    } else if (flag == "--server") {
      options.server_path = value;
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (trace < 0) return Usage("--trace must be 0 or 1");
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");
  options.trace = trace == 1;

  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool asserts_off = true;
#else
  const bool asserts_off = false;
#endif
  if (build_type != "Release" || !asserts_off) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str());
    return 3;
  }

  perfbench::Report report;
  perfbench::Outcome outcome;
  report.InfoText("workload", options.workload);
  report.InfoText("seed", std::to_string(options.seed));
  report.InfoText("trace", options.trace ? "1" : "0");
  report.InfoText("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  report.InfoText("build_type", build_type);
  report.InfoText("simd", std::string(cpa::simd::LevelName(cpa::simd::ActiveLevel())) +
                              (cpa::simd::ActiveLevelForced() ? " (forced via CPA_SIMD)"
                                                              : " (auto)"));
  report.InfoText("commit", commit);

  if (options.workload == "offline-fit") {
    perfbench::RunOfflineFit(options, report, outcome);
  } else if (options.workload == "stream-refresh") {
    perfbench::RunStreamRefresh(options, report, outcome);
  } else if (options.workload == "serve-mixed") {
    if (options.server_path.empty()) return Usage("serve-mixed needs --server");
    perfbench::RunServeMixed(options, report, outcome);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  report.Print(outcome);
  return 0;
}
