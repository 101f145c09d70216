#include "perfbench/src/trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

double SelfTimeMs(const Span& span, const std::vector<const Span*>& children) {
  std::vector<std::pair<double, double>> covered;
  covered.reserve(children.size());
  for (const Span* child : children) {
    const double start = std::max(child->start_ms, span.start_ms);
    const double end = std::min(child->end_ms, span.end_ms);
    if (end > start) covered.emplace_back(start, end);
  }
  std::sort(covered.begin(), covered.end());
  double union_ms = 0.0;
  double run_start = 0.0;
  double run_end = 0.0;
  bool open = false;
  for (const auto& [start, end] : covered) {
    if (open && start <= run_end) {
      run_end = std::max(run_end, end);
      continue;
    }
    if (open) union_ms += run_end - run_start;
    run_start = start;
    run_end = end;
    open = true;
  }
  if (open) union_ms += run_end - run_start;
  return span.duration_ms() - union_ms;
}

std::map<std::string, SpanSummary> SummarizeSpans(const std::vector<Span>& spans) {
  std::vector<std::vector<const Span*>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0 && static_cast<std::size_t>(span.parent) < spans.size()) {
      children[static_cast<std::size_t>(span.parent)].push_back(&span);
    }
  }
  std::map<std::string, SpanSummary> summary;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanSummary& row = summary[spans[i].name];
    ++row.count;
    row.total_ms += spans[i].duration_ms();
    row.self_ms += SelfTimeMs(spans[i], children[i]);
    row.durations_ms.push_back(spans[i].duration_ms());
  }
  return summary;
}

bool IsLayerSpan(const Span& span) {
  for (const char* prefix : {"core.", "engine.", "server.", "rtt."}) {
    if (span.name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

double LayerCoverage(const std::vector<Span>& spans, const std::vector<std::string>& roots,
                     double wall_ms) {
  if (wall_ms <= 0.0) return 0.0;
  // A span begins after its parent, so parents come first in the list.
  std::vector<std::size_t> root_of(spans.size());
  std::vector<std::vector<const Span*>> layer_spans(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int parent = spans[i].parent;
    root_of[i] = parent < 0 ? i : root_of[static_cast<std::size_t>(parent)];
    if (parent >= 0 && IsLayerSpan(spans[i])) layer_spans[root_of[i]].push_back(&spans[i]);
  }
  double covered = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.parent >= 0 ||
        std::find(roots.begin(), roots.end(), span.name) == roots.end()) {
      continue;
    }
    covered += span.duration_ms() - SelfTimeMs(span, layer_spans[i]);
  }
  return covered / wall_ms;
}

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(Clock::now()) {}

int SpanRecorder::Begin(const std::string& name, std::uint64_t request,
                        int parent) {
  if (!enabled_) return -1;
  const double now = NowMs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, now, now, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::End(int id) {
  if (id < 0) return;
  const double now = NowMs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ms = now;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"summary\": {");
  bool first = true;
  for (const auto& [name, row] : SummarizeSpans(all)) {
    std::fprintf(out,
                 "%s\n  \"%s\": {\"count\": %zu, \"total_ms\": %s, "
                 "\"self_ms\": %s, \"p50_ms\": %s}",
                 first ? "" : ",", name.c_str(), row.count,
                 FormatNumber(row.total_ms).c_str(),
                 FormatNumber(row.self_ms).c_str(),
                 FormatNumber(Median(row.durations_ms)).c_str());
    first = false;
  }
  std::fprintf(out, "\n},\n\"spans\": [");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& span = all[i];
    std::fprintf(out,
                 "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start_ms\": %s, "
                 "\"end_ms\": %s, \"parent\": %d, \"request\": %llu}",
                 i == 0 ? "" : ",", i, span.name.c_str(),
                 FormatNumber(span.start_ms).c_str(),
                 FormatNumber(span.end_ms).c_str(), span.parent,
                 static_cast<unsigned long long>(span.request));
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
