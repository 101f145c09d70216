#include "perfbench/src/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double SortedQuantile(const std::vector<double>& sorted, double p) {
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return SortedQuantile(values, 0.5);
}

std::size_t SamplesBeyond(std::size_t n, double p) {
  if (n == 0) return 0;
  const double rank = p * static_cast<double>(n - 1);
  return n - 1 - static_cast<std::size_t>(std::floor(rank));
}

std::optional<double> TailPercentile(std::vector<double> values, double p) {
  if (SamplesBeyond(values.size(), p) < kMinBeyond) return std::nullopt;
  std::sort(values.begin(), values.end());
  return SortedQuantile(values, p);
}

double WindowedRate(const std::vector<Completion>& completions, double phase_ms,
                    double window_ms) {
  const std::size_t windows = static_cast<std::size_t>(phase_ms / window_ms);
  if (windows == 0) return 0.0;
  std::vector<double> answers(windows, 0.0);
  for (const Completion& done : completions) {
    if (done.at_ms < 0.0) continue;
    const std::size_t window = static_cast<std::size_t>(done.at_ms / window_ms);
    if (window < windows) answers[window] += done.answers;
  }
  for (double& count : answers) count /= window_ms / 1e3;
  return Median(std::move(answers));
}

void Outcome::Op(bool ok, std::string_view what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: operation failed: %.*s\n",
                 static_cast<int>(what.size()), what.data());
  }
}

void Outcome::Check(bool ok, std::string_view what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "perfbench: check failed: %.*s\n",
               static_cast<int>(what.size()), what.data());
}

void Outcome::Merge(const Outcome& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  correct_ = correct_ && other.correct_;
}

std::uint64_t HashPredictions(const std::vector<cpa::LabelSet>& predictions) {
  ConsensusHasher hasher;
  for (const cpa::LabelSet& labels : predictions) {
    hasher.Mix(labels.size());
    for (cpa::LabelId label : labels) hasher.Mix(label);
  }
  return hasher.value();
}

double PeakRssMb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream status(path);
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

namespace {

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::Info(const std::string& name, double value,
                  const std::string& unit) {
  info_[name] = {value, unit};
}

void Report::InfoText(const std::string& name, const std::string& value) {
  text_[name] = value;
}

void Report::Print(const Outcome& outcome) const {
  std::string info = "{";
  for (const auto& [name, text] : text_) {
    if (info.size() > 1) info += ", ";
    info += Quote(name) + ": " + Quote(text);
  }
  for (const auto& [name, value] : info_) {
    if (info.size() > 1) info += ", ";
    info += Quote(name) + ": {\"value\": " + FormatNumber(value.value) +
            ", \"unit\": " + Quote(value.unit) + "}";
  }
  info += "}";
  std::printf("perfbench-info %s\n", info.c_str());

  std::string metrics = "{";
  for (const auto& [name, value] : metrics_) {
    if (metrics.size() > 1) metrics += ", ";
    metrics += Quote(name) + ": {\"value\": " + FormatNumber(value.value) +
               ", \"unit\": " + Quote(value.unit) + "}";
  }
  metrics += "}";
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
      outcome.correct() ? "true" : "false", outcome.attempted(),
      outcome.failed(), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
