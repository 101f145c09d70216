/// offline-fit: a closed loop of back-to-back `CPA` sessions, each doing
/// Observe-all then Finalize, on the §5.1 scalability simulation (10^4
/// items × 10^4 workers × 10 labels, redundancy 10 → 100k answers), with
/// 10 VI iterations on 4 threads. Nearly all time is in `core` VI sweeps
/// and prediction; no SVI and no server code runs in the timed loop.

#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "core/cpa.h"
#include "engine/engine_registry.h"
#include "eval/metrics.h"
#include "perfbench/src/replay.h"
#include "perfbench/src/workloads.h"
#include "simulation/dataset_factory.h"

namespace perfbench {
namespace {

using cpa::SharedSnapshot;

constexpr std::size_t kItems = 10'000;
constexpr std::size_t kWorkers = 10'000;
constexpr std::size_t kLabels = 10;
constexpr double kRedundancy = 10.0;
constexpr std::size_t kIterations = 10;
constexpr std::size_t kThreads = 4;

struct SessionRun {
  bool ok = false;
  double ms = 0.0;
  SharedSnapshot snapshot;
};

/// One session: open, Observe-all, Finalize, close.
SessionRun RunSession(const cpa::Dataset& dataset, const cpa::EngineConfig& config,
                      SpanRecorder& recorder, std::uint64_t request) {
  SessionRun run;
  const Clock::time_point start = Clock::now();
  SpanRecorder::Scope root(recorder, "offline.session", request);
  std::unique_ptr<cpa::ConsensusEngine> engine;
  {
    SpanRecorder::Scope span(recorder, "engine.open", request, root.id());
    auto opened = cpa::EngineRegistry::Global().Open(config);
    if (!opened.ok()) return run;
    engine = std::move(opened).value();
  }
  cpa::Status observed;
  {
    SpanRecorder::Scope span(recorder, "engine.observe", request, root.id());
    observed = cpa::ObserveAll(*engine, dataset.answers);
  }
  cpa::Result<SharedSnapshot> finalized = SharedSnapshot();
  {
    SpanRecorder::Scope span(recorder, "engine.finalize", request, root.id());
    finalized = engine->Finalize();
  }
  {
    SpanRecorder::Scope span(recorder, "engine.close", request, root.id());
    engine.reset();
  }
  run.ms = MillisBetween(start, Clock::now());
  run.ok = observed.ok() && finalized.ok();
  if (run.ok) run.snapshot = finalized.value();
  return run;
}

bool SameScores(const cpa::Matrix& a, const cpa::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    if (std::memcmp(a.Row(r).data(), b.Row(r).data(), a.cols() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// Bit-identity of two consensus outputs (labels and scores).
bool Identical(const std::vector<cpa::LabelSet>& labels, const cpa::Matrix& scores,
               const cpa::ConsensusSnapshot& reference) {
  return labels == reference.predictions && SameScores(scores, reference.label_scores);
}

struct Pass {
  std::vector<double> session_ms;
  std::size_t answers = 0;
  double wall_ms = 0.0;
};

Pass TimedPass(const cpa::Dataset& dataset, const cpa::EngineConfig& config,
               double seconds, const cpa::ConsensusSnapshot& reference,
               SpanRecorder& recorder, Outcome& outcome) {
  Pass pass;
  const Clock::time_point start = Clock::now();
  std::uint64_t request = 0;
  while (SecondsSince(start) < seconds) {
    const SessionRun run = RunSession(dataset, config, recorder, ++request);
    outcome.Op(run.ok, "offline session");
    if (!run.ok) continue;
    outcome.Check(Identical(run.snapshot->predictions, run.snapshot->label_scores,
                            reference),
                  "offline-fit session differs from the warm-up fit");
    pass.session_ms.push_back(run.ms);
    pass.answers += dataset.answers.num_answers();
  }
  pass.wall_ms = MillisBetween(start, Clock::now());
  return pass;
}

/// Bare-core fit + prediction (what `CpaOfflineEngine` runs underneath).
struct CoreRun {
  bool ok = false;
  double fit_ms = 0.0;
  double predict_ms = 0.0;
  std::size_t iterations = 0;
  cpa::CpaPrediction prediction;
};

CoreRun RunCore(const cpa::Dataset& dataset, const cpa::EngineConfig& config,
                cpa::Executor* pool, SpanRecorder& recorder, std::uint64_t request) {
  CoreRun run;
  SpanRecorder::Scope root(recorder, "core.replay", request);
  cpa::FitOptions fit;
  fit.pool = pool;
  cpa::FitStats stats;
  Clock::time_point start = Clock::now();
  cpa::Result<cpa::CpaModel> model = cpa::CpaModel();
  {
    SpanRecorder::Scope span(recorder, "core.vi.fit", request, root.id());
    model = cpa::FitCpa(dataset.answers, dataset.num_labels, config.cpa, fit, &stats);
  }
  run.fit_ms = MillisBetween(start, Clock::now());
  if (!model.ok()) return run;
  start = Clock::now();
  cpa::Result<cpa::CpaPrediction> prediction = cpa::CpaPrediction();
  {
    SpanRecorder::Scope span(recorder, "core.prediction.predict", request, root.id());
    prediction = cpa::PredictLabels(model.value(), dataset.answers, pool);
  }
  run.predict_ms = MillisBetween(start, Clock::now());
  if (!prediction.ok()) return run;
  run.ok = true;
  run.iterations = stats.iterations;
  run.prediction = std::move(prediction).value();
  return run;
}

}  // namespace

void RunOfflineFit(const RunOptions& options, Report& report, Outcome& outcome) {
  cpa::FactoryOptions factory;
  factory.seed = options.seed;
  auto generated =
      cpa::MakeScalabilityDataset(kItems, kWorkers, kLabels, kRedundancy, factory);
  if (!generated.ok()) {
    outcome.Check(false, "scalability dataset: " + generated.status().ToString());
    return;
  }
  const cpa::Dataset dataset = std::move(generated).value();
  cpa::EngineConfig config = cpa::EngineConfig::ForDataset("CPA", dataset);
  config.cpa.max_iterations = kIterations;
  config.num_threads = kThreads;

  // Set-up: open a session and run the untimed warm-up fit, kSetupRepeats
  // times. Every warm-up must produce the same consensus.
  SpanRecorder untraced(false);
  std::vector<double> setup_s;
  SharedSnapshot reference;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    const Clock::time_point start = Clock::now();
    const SessionRun warm = RunSession(dataset, config, untraced, 0);
    setup_s.push_back(SecondsSince(start));
    outcome.Check(warm.ok, "offline-fit warm-up session failed");
    if (!warm.ok) return;
    if (reference == nullptr) {
      reference = warm.snapshot;
    } else {
      outcome.Check(Identical(warm.snapshot->predictions, warm.snapshot->label_scores,
                              *reference),
                    "offline-fit warm-up fits differ");
    }
  }
  const double f1 =
      cpa::ComputeSetMetrics(reference->predictions, dataset.ground_truth).F1();
  report.Info("answers_per_session", static_cast<double>(dataset.answers.num_answers()),
              "count");

  const Pass pass = TimedPass(dataset, config, options.seconds, *reference,
                              untraced, outcome);

  if (!options.trace) {
    // One-thread session: the consensus must be bit-identical to 4 threads.
    cpa::EngineConfig single = config;
    single.num_threads = 1;
    const SessionRun t1 = RunSession(dataset, single, untraced, 0);
    outcome.Check(t1.ok && Identical(t1.snapshot->predictions,
                                     t1.snapshot->label_scores, *reference),
                  "offline-fit predictions differ between 1 and 4 threads");
    report.Metric("setup_s", Median(setup_s), "s");
    // A session outlasts a one-second window, so the rate is taken over the
    // whole timed wall, the time between sessions included.
    report.Metric("answers_per_s", static_cast<double>(pass.answers) / (pass.wall_ms / 1e3),
                  "1/s");
    report.Metric("f1", f1, "ratio");
    report.Metric("peak_rss_mb", PeakRssMb(), "MB");
    report.Metric("fresh_p50_ms", Median(pass.session_ms), "ms");
    report.Info("sessions", static_cast<double>(pass.session_ms.size()), "count");
    return;
  }

  // Traced run: the same closed loop with spans, each session paired with
  // the bare-core fit + prediction it runs underneath.
  SpanRecorder recorder(true);
  cpa::ThreadPool pool(kThreads);
  std::vector<double> session_ms;
  std::vector<double> core_ms;
  std::vector<double> fit_ms;
  std::vector<double> predict_ms;
  std::size_t iterations = 0;
  const Clock::time_point traced_start = Clock::now();
  for (std::uint64_t request = 1; SecondsSince(traced_start) < options.seconds;
       ++request) {
    const SessionRun run = RunSession(dataset, config, recorder, request);
    outcome.Op(run.ok, "offline session");
    if (!run.ok) continue;
    outcome.Check(Identical(run.snapshot->predictions, run.snapshot->label_scores,
                            *reference),
                  "offline-fit session differs from the warm-up fit");
    const CoreRun core = RunCore(dataset, config, &pool, recorder, request);
    outcome.Check(core.ok && Identical(core.prediction.labels, core.prediction.scores,
                                       *reference),
                  "bare FitCpa+PredictLabels differ from the engine session");
    session_ms.push_back(run.ms);
    core_ms.push_back(core.fit_ms + core.predict_ms);
    fit_ms.push_back(core.fit_ms);
    predict_ms.push_back(core.predict_ms);
    iterations = core.iterations;
  }
  const double traced_wall_ms = MillisBetween(traced_start, Clock::now());
  const std::vector<Span> loop_spans = recorder.spans();

  LayerMetrics layers;
  layers.untraced_fresh_p50_ms = Median(pass.session_ms);
  layers.traced_fresh_p50_ms = Median(session_ms);
  layers.coverage =
      LayerCoverage(loop_spans, {"offline.session", "core.replay"}, traced_wall_ms);
  layers.core_refresh_ms = Median(core_ms);
  layers.engine_overhead_ms = Median(Differences(session_ms, core_ms));

  const CoreRun core_t1 = RunCore(dataset, config, nullptr, recorder, 0);
  outcome.Check(core_t1.ok && Identical(core_t1.prediction.labels,
                                        core_t1.prediction.scores, *reference),
                "offline-fit predictions differ between 1 and 4 threads");
  layers.core_speedup_t4 = (core_t1.fit_ms + core_t1.predict_ms) / layers.core_refresh_ms;

  // The same session through an in-process server handler, in lockstep
  // with an engine session: one observe frame carrying every answer, then
  // finalize.
  cpa::ConsensusServerOptions server_options;
  server_options.sessions.num_threads = kThreads;
  cpa::ConsensusServer server(server_options);
  std::vector<std::size_t> all(dataset.answers.num_answers());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  auto engine = MakeEngineStepper(config, dataset.answers, false, recorder, 0);
  auto handler = MakeHandlerStepper(server, "offline", config, dataset.answers,
                                    recorder, 0);
  Lockstep({engine.get(), handler.get()}, {all}, /*refresh_each_batch=*/false);
  const ReplayResult& engine_run = engine->result();
  const ReplayResult& handled = handler->result();
  outcome.Check(engine_run.ok && handled.ok &&
                    handled.final_predictions == reference->predictions,
                "server handler replay differs from the engine session: " +
                    handled.error);
  layers.server_overhead_ms =
      Median(Differences(Sums(handled.observe_ms, handled.refresh_ms),
                         Sums(engine_run.observe_ms, engine_run.refresh_ms)));
  MeasureCodec(handled.observe_frames, reference, layers, outcome);
  ReportLayers(layers, report);

  report.Info("core.vi.fit_ms", Median(fit_ms), "ms");
  report.Info("core.vi.fit_t1_ms", core_t1.fit_ms, "ms");
  report.Info("core.vi.iterations", static_cast<double>(iterations), "count");
  report.Info("core.prediction.predict_ms", Median(predict_ms), "ms");
  report.Info("engine.offline.overhead_ms", layers.engine_overhead_ms, "ms");
  DumpTrace(options, recorder, report);
}

}  // namespace perfbench
