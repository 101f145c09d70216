/// Self-checks of the perfbench statistics and span helpers. Exits 0 when
/// every check holds; perfbench/run.py runs it before each measurement.

#include <cmath>
#include <cstdio>
#include <vector>

#include "perfbench/src/harness.h"
#include "perfbench/src/trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest: FAILED %s\n", what);
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void PercentileChecks() {
  using perfbench::Median;
  using perfbench::SamplesBeyond;
  using perfbench::TailPercentile;
  Expect(Near(Median({3.0, 1.0, 2.0}), 2.0), "median of an odd sample");
  Expect(Near(Median({4.0, 1.0, 2.0, 3.0}), 2.5), "median of an even sample");
  Expect(Median({}) == 0.0, "median of an empty sample");

  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  Expect(SamplesBeyond(100, 0.9) == 10, "100 samples leave 10 beyond p90");
  Expect(SamplesBeyond(99, 0.9) == 10, "99 samples leave 10 beyond p90");
  Expect(SamplesBeyond(90, 0.9) == 9, "90 samples leave 9 beyond p90");
  const auto p90 = TailPercentile(hundred, 0.9);
  Expect(p90.has_value() && Near(*p90, 90.1), "p90 of 1..100 interpolates to 90.1");
  std::vector<double> ninety(hundred.begin(), hundred.begin() + 90);
  Expect(!TailPercentile(ninety, 0.9).has_value(),
         "p90 is refused with fewer than 10 samples beyond it");
  std::vector<double> thousand;
  for (int i = 0; i < 1000; ++i) thousand.push_back(i);
  Expect(TailPercentile(thousand, 0.99).has_value(), "1000 samples support p99");
  thousand.pop_back();
  Expect(SamplesBeyond(thousand.size(), 0.99) == 10, "999 samples leave 10 beyond p99");
  thousand.resize(902);
  Expect(TailPercentile(thousand, 0.99).has_value(), "902 samples leave 10 beyond p99");
  thousand.resize(900);
  Expect(!TailPercentile(thousand, 0.99).has_value(), "900 samples do not support p99");
}

void WindowedRateChecks() {
  using perfbench::Completion;
  using perfbench::WindowedRate;
  // Windows of 100 ms: 10, 20, 10, (30 in the dropped partial window).
  const std::vector<Completion> done = {{10.0, 4.0},  {90.0, 6.0},  {150.0, 20.0},
                                        {250.0, 10.0}, {310.0, 30.0}};
  Expect(Near(WindowedRate(done, 350.0, 100.0), 100.0),
         "windowed rate is the median per-window rate, partial window dropped");
  Expect(WindowedRate(done, 50.0, 100.0) == 0.0, "no whole window gives 0");
  const std::vector<Completion> burst = {{50.0, 10.0}, {150.0, 10.0}, {250.0, 1.0}};
  Expect(Near(WindowedRate(burst, 300.0, 100.0), 100.0),
         "one slow window does not move the median");
}

void SelfTimeChecks() {
  using perfbench::SelfTimeMs;
  using perfbench::Span;
  const Span parent{"parent", 0.0, 10.0, -1, 1};
  Expect(Near(SelfTimeMs(parent, {}), 10.0), "a leaf's self time is its duration");
  const Span a{"a", 1.0, 4.0, 0, 1};
  const Span b{"b", 3.0, 6.0, 0, 1};  // overlaps a: union [1, 6)
  Expect(Near(SelfTimeMs(parent, {&a, &b}), 5.0), "overlapping children count once");
  const Span c{"c", 8.0, 12.0, 0, 1};  // clipped to [8, 10)
  Expect(Near(SelfTimeMs(parent, {&a, &b, &c}), 3.0), "children are clipped to the parent");
  const Span outside{"d", 11.0, 12.0, 0, 1};
  Expect(Near(SelfTimeMs(parent, {&outside}), 10.0), "a child outside the parent covers nothing");

  const std::vector<Span> spans = {parent, a, b};
  const auto summary = perfbench::SummarizeSpans(spans);
  Expect(summary.at("parent").count == 1 && Near(summary.at("parent").self_ms, 5.0),
         "summary takes self time from parent links");
  Expect(Near(summary.at("a").self_ms, 3.0), "a childless span keeps its duration");

  // Root 0–10 ms: a bookkeeping child (1–4) holding a layer call (2–3), and
  // layer calls 5–7 and 6–8; a second root 10–20 with no layer call; and a
  // root of another name. Covered: 1 + 3 of the 20 ms wall.
  const std::vector<Span> tree = {
      {"step", 0.0, 10.0, -1, 1},       {"bench.check", 1.0, 4.0, 0, 1},
      {"engine.observe", 2.0, 3.0, 1, 1}, {"rtt.refresh", 5.0, 7.0, 0, 1},
      {"core.predict", 6.0, 8.0, 0, 1},  {"step", 10.0, 20.0, -1, 2},
      {"poll", 0.0, 20.0, -1, 3},        {"rtt.poll", 0.0, 20.0, 6, 3}};
  Expect(Near(perfbench::LayerCoverage(tree, {"step"}, 20.0), 0.2),
         "coverage is the union of layer spans below the named roots");
  Expect(Near(perfbench::LayerCoverage(tree, {"step", "poll"}, 40.0), 0.6),
         "coverage sums over every named root");

  perfbench::SpanRecorder off(false);
  Expect(off.Begin("x", 1) == -1 && off.spans().empty(), "a disabled recorder records nothing");
  perfbench::SpanRecorder on(true);
  const int root = on.Begin("root", 7);
  const int child = on.Begin("child", 7, root);
  on.End(child);
  on.End(root);
  const auto recorded = on.spans();
  Expect(recorded.size() == 2 && recorded[1].parent == root && recorded[1].request == 7 &&
             recorded[0].end_ms >= recorded[1].end_ms,
         "spans keep parent, request and nesting");
}

}  // namespace

int main() {
  PercentileChecks();
  WindowedRateChecks();
  SelfTimeChecks();
  if (failures == 0) std::printf("selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
