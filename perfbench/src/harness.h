#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

/// \file harness.h
/// \brief Shared plumbing of the perfbench workloads: run options, the
/// percentile rule, block timing of sub-millisecond calls, outcome
/// accounting and the one-line JSON report.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <sys/types.h>

#include "data/label_set.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

inline double SecondsSince(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

/// What one invocation measures (parsed from the command line).
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server_path;  ///< cpa_server binary (serve-mixed only)
  std::string trace_dir;    ///< where the traced run writes its spans
};

/// Number of setups per run; `setup_s` is their median.
inline constexpr int kSetupRepeats = 3;

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// A tail percentile is reported only when at least this many samples lie
/// beyond it.
inline constexpr std::size_t kMinBeyond = 10;

/// Linear-interpolated quantile of an ascending-sorted, non-empty sample.
double SortedQuantile(const std::vector<double>& sorted, double p);

/// Median (0 for an empty sample).
double Median(std::vector<double> values);

/// Number of samples strictly beyond the p-th percentile position.
std::size_t SamplesBeyond(std::size_t n, double p);

/// The p-th percentile, or nullopt when fewer than `kMinBeyond` samples
/// lie beyond it.
std::optional<double> TailPercentile(std::vector<double> values, double p);

/// One completed unit of work: when it completed (ms since the timed
/// phase began) and how many answers it brought into the consensus.
struct Completion {
  double at_ms = 0.0;
  double answers = 0.0;
};

/// Throughput robust to bursts of outside interference: the timed phase
/// is cut into whole `window_ms` windows (a trailing partial window is
/// dropped) and the result is the median over windows of answers
/// completed in the window per second. 0 when no window is whole.
double WindowedRate(const std::vector<Completion>& completions, double phase_ms,
                    double window_ms = 1000.0);

/// Per-call milliseconds of `call`, for calls too short to time singly:
/// calls run in blocks of at least `min_block_ms`, and the result is the
/// median over `blocks` blocks of block time ÷ calls.
template <typename Call>
double PerCallMillis(Call&& call, int blocks = 9, double min_block_ms = 2.0) {
  std::size_t per_block = 1;
  // Calibrate: grow the block until it lasts min_block_ms.
  for (;;) {
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < per_block; ++i) call();
    if (MillisBetween(start, Clock::now()) >= min_block_ms) break;
    per_block *= 2;
  }
  std::vector<double> per_call;
  for (int b = 0; b < blocks; ++b) {
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < per_block; ++i) call();
    per_call.push_back(MillisBetween(start, Clock::now()) /
                       static_cast<double>(per_block));
  }
  return Median(std::move(per_call));
}

// ---------------------------------------------------------------------------
// Outcomes
// ---------------------------------------------------------------------------

/// Counts timed operations and correctness checks. A failed check or a
/// failed operation makes the run incorrect; it never aborts the run.
class Outcome {
 public:
  /// One timed operation attempted; `ok` false counts it as failed.
  void Op(bool ok, std::string_view what = {});
  /// One correctness check.
  void Check(bool ok, std::string_view what);
  /// Adds another (per-thread) outcome into this one.
  void Merge(const Outcome& other);

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  bool correct() const { return correct_ && failed_ == 0; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  bool correct_ = true;
};

/// Order-sensitive FNV-1a digest of a consensus, fed item by item: the
/// item's label count, then its labels in ascending order.
class ConsensusHasher {
 public:
  void Mix(std::uint64_t value) {
    hash_ ^= value;
    hash_ *= 1099511628211ULL;
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

/// `ConsensusHasher` digest of a consensus (every label of every item).
std::uint64_t HashPredictions(const std::vector<cpa::LabelSet>& predictions);

/// `VmHWM` of a process (self when pid == 0) in MB, or 0 when unreadable.
double PeakRssMb(pid_t pid = 0);

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// The run's metrics. `Metric` values go into the final JSON line (the
/// metric set BENCHMARK.json declares, the same for every workload);
/// `Info` values — run metadata and figures only some workloads have — are
/// printed on a preceding `perfbench-info` line.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& name, double value, const std::string& unit);
  void InfoText(const std::string& name, const std::string& value);

  /// Prints the info line, then the result line, to stdout.
  void Print(const Outcome& outcome) const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::map<std::string, Value> info_;
  std::map<std::string, std::string> text_;
};

/// Formats a double with every significant digit.
std::string FormatNumber(double value);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
