#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

/// \file trace.h
/// \brief In-memory span recorder for the traced run.
///
/// Spans are recorded from the benchmark's own files around calls into a
/// layer (`core`, `engine`, `server`). Each span keeps its name, start and
/// end, the span that caused it and a request id; spans stay in memory and
/// are written out once, when the run ends. A disabled recorder records
/// nothing, so the untraced run pays one branch per call site.

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"

namespace perfbench {

/// One recorded span; times are milliseconds since the recorder's epoch.
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;  ///< index of the causing span, -1 for a root
  std::uint64_t request = 0;

  double duration_ms() const { return end_ms - start_ms; }
};

/// Self time of `span`: its duration minus the part of its interval that
/// the union of `children` covers (children are clipped to the span).
double SelfTimeMs(const Span& span, const std::vector<const Span*>& children);

/// Per-name totals over a span list.
struct SpanSummary {
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  std::vector<double> durations_ms;
};

/// Groups `spans` by name, with self times computed from parent links.
std::map<std::string, SpanSummary> SummarizeSpans(const std::vector<Span>& spans);

/// True for a span around a call into a layer: its name starts with
/// `core.`, `engine.`, `server.` or `rtt.` (a client roundtrip).
bool IsLayerSpan(const Span& span);

/// Share of `wall_ms` that layer calls cover: for every root span named in
/// `roots`, the union of the layer spans below it (at any depth, clipped to
/// the root), summed over those roots. Root time outside every layer span
/// (the benchmark's own checks and bookkeeping) counts as uncovered, as
/// does wall time outside the roots.
double LayerCoverage(const std::vector<Span>& spans, const std::vector<std::string>& roots,
                     double wall_ms);

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (or -1 when disabled).
  int Begin(const std::string& name, std::uint64_t request, int parent = -1);
  /// Closes span `id` (a no-op for -1).
  void End(int id);

  /// RAII span.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const std::string& name,
          std::uint64_t request, int parent = -1)
        : recorder_(recorder), id_(recorder.Begin(name, request, parent)) {}
    ~Scope() { recorder_.End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    SpanRecorder& recorder_;
    int id_;
  };

  /// A copy of every span recorded so far.
  std::vector<Span> spans() const;

  /// Milliseconds since the recorder was created.
  double NowMs() const { return MillisBetween(epoch_, Clock::now()); }

  /// Writes the spans and the per-name summary as JSON to `path`.
  bool WriteJson(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mutex_;  ///< guards `spans_`
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
