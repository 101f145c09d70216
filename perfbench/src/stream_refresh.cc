/// stream-refresh: one `CPA-SVI` session at a time in a closed loop on 4
/// threads, replaying `spammer-flood` streams (StandardScenarioMatrix) cut
/// into 120 batches; every batch does Observe then a refreshing Snapshot.
/// The loop cycles over 4 streams of different seeds so that `f1`, pooled
/// over them, does not hang on one 360-item draw. Nearly all time is in
/// `core/svi` ObserveBatch and Predict's global refresh; the offline VI fit
/// and the server are bypassed.

#include <memory>
#include <string>
#include <utility>

#include "engine/engine_registry.h"
#include "eval/metrics.h"
#include "perfbench/src/replay.h"
#include "perfbench/src/workloads.h"
#include "simulation/adversary.h"

namespace perfbench {
namespace {

using cpa::SharedSnapshot;

constexpr double kScale = 1.0;
constexpr std::size_t kBatches = 120;
constexpr std::size_t kThreads = 4;
constexpr std::size_t kStreams = 4;

/// Outputs of one streamed session.
struct StreamRun {
  bool completed = false;
  std::vector<double> fresh_ms;  ///< observe + refresh, per batch
  std::vector<Completion> completions;
  std::vector<std::uint64_t> hashes;  ///< consensus digest per batch
  std::size_t answers = 0;
  SharedSnapshot final_snapshot;
};

/// Streams the plan through a fresh session; stops early (uncompleted)
/// once `deadline` passes. Every op is counted in `outcome`.
StreamRun RunStream(const cpa::AdversarialStream& stream,
                    const cpa::EngineConfig& config, Clock::time_point origin,
                    Clock::time_point deadline,
                    SpanRecorder& recorder, std::uint64_t stream_id,
                    std::uint64_t& request, Outcome& outcome) {
  StreamRun run;
  SpanRecorder::Scope root(recorder, "stream.session", stream_id);
  std::unique_ptr<cpa::ConsensusEngine> engine;
  {
    SpanRecorder::Scope span(recorder, "engine.open", stream_id, root.id());
    auto opened = cpa::EngineRegistry::Global().Open(config);
    outcome.Op(opened.ok(), "open CPA-SVI session");
    if (!opened.ok()) return run;
    engine = std::move(opened).value();
  }
  const cpa::AnswerMatrix& answers = stream.dataset.answers;
  for (const std::vector<std::size_t>& batch : stream.plan.batches) {
    if (Clock::now() >= deadline) return run;
    ++request;
    SpanRecorder::Scope batch_span(recorder, "stream.batch", request, root.id());
    const Clock::time_point start = Clock::now();
    cpa::Status observed;
    {
      SpanRecorder::Scope span(recorder, "engine.observe", request, batch_span.id());
      observed = engine->Observe({&answers, batch});
    }
    cpa::Result<SharedSnapshot> snapshot = SharedSnapshot();
    {
      SpanRecorder::Scope span(recorder, "engine.refresh", request, batch_span.id());
      snapshot = engine->Snapshot();
    }
    const Clock::time_point end = Clock::now();
    const bool ok = observed.ok() && snapshot.ok();
    outcome.Op(ok, "observe + refresh");
    if (!ok) return run;
    run.fresh_ms.push_back(MillisBetween(start, end));
    run.completions.push_back({MillisBetween(origin, end), static_cast<double>(batch.size())});
    run.hashes.push_back(HashPredictions(snapshot.value()->predictions));
    run.answers += batch.size();
  }
  cpa::Result<SharedSnapshot> finalized = SharedSnapshot();
  {
    SpanRecorder::Scope span(recorder, "engine.finalize", stream_id, root.id());
    finalized = engine->Finalize();
  }
  outcome.Op(finalized.ok(), "finalize");
  if (!finalized.ok()) return run;
  run.final_snapshot = finalized.value();
  run.completed = true;
  {
    SpanRecorder::Scope span(recorder, "engine.close", stream_id, root.id());
    engine.reset();
  }
  return run;
}

/// One seeded stream and the consensus it must produce.
struct Source {
  cpa::AdversarialStream stream;
  cpa::EngineConfig config;
  StreamRun reference;  ///< the first whole run of the stream

  /// Checks `run` against the reference, or makes it the reference when
  /// it is the stream's first whole run.
  void Check(StreamRun run, Outcome& outcome) {
    if (!reference.completed) {
      if (run.completed) reference = std::move(run);
      return;
    }
    for (std::size_t b = 0; b < run.hashes.size(); ++b) {
      outcome.Check(run.hashes[b] == reference.hashes[b],
                    "stream-refresh batch consensus differs from an earlier run");
    }
    if (run.completed) {
      outcome.Check(run.final_snapshot->predictions ==
                        reference.final_snapshot->predictions,
                    "stream-refresh final consensus differs from an earlier run");
    }
  }
};

struct Pass {
  std::vector<double> fresh_ms;
  std::vector<Completion> completions;
  std::size_t answers = 0;
  std::size_t streams_completed = 0;
  double wall_ms = 0.0;
};

Pass TimedPass(std::vector<Source>& sources, double seconds, SpanRecorder& recorder,
               Outcome& outcome) {
  Pass pass;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::uint64_t request = 0;
  for (std::uint64_t stream_id = 1; Clock::now() < deadline; ++stream_id) {
    Source& source = sources[stream_id % sources.size()];
    StreamRun run = RunStream(source.stream, source.config, start, deadline, recorder,
                              stream_id, request, outcome);
    if (run.fresh_ms.empty()) break;  // a failing session would spin
    pass.fresh_ms.insert(pass.fresh_ms.end(), run.fresh_ms.begin(), run.fresh_ms.end());
    pass.completions.insert(pass.completions.end(), run.completions.begin(),
                            run.completions.end());
    pass.answers += run.answers;
    if (run.completed) ++pass.streams_completed;
    source.Check(std::move(run), outcome);
  }
  pass.wall_ms = MillisBetween(start, Clock::now());
  return pass;
}

}  // namespace

void RunStreamRefresh(const RunOptions& options, Report& report, Outcome& outcome) {
  std::vector<Source> sources(kStreams);
  for (std::size_t k = 0; k < kStreams; ++k) {
    bool found = false;
    for (const cpa::AdversarialScenario& candidate :
         cpa::StandardScenarioMatrix(options.seed * kStreams + k, kScale)) {
      if (candidate.name != "spammer-flood") continue;
      cpa::AdversaryConfig scenario = candidate.config;
      scenario.num_batches = kBatches;
      auto generated = cpa::GenerateAdversarialStream(scenario);
      if (!generated.ok()) break;
      sources[k].stream = std::move(generated).value();
      found = true;
    }
    outcome.Check(found, "spammer-flood stream could not be generated");
    if (!found) return;
    sources[k].config = cpa::EngineConfig::ForDataset("CPA-SVI", sources[k].stream.dataset);
    sources[k].config.num_threads = kThreads;
  }
  const cpa::AdversarialStream& stream = sources[0].stream;
  const cpa::EngineConfig& config = sources[0].config;
  report.Info("batches_per_stream", static_cast<double>(stream.plan.batches.size()),
              "count");

  // Set-up: open a session and stream the first plan whole, untimed.
  SpanRecorder untraced(false);
  const Clock::time_point never = Clock::time_point::max();
  std::vector<double> setup_s;
  Outcome warmup;  // set-up ops are not timed ops
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    std::uint64_t request = 0;
    const Clock::time_point start = Clock::now();
    StreamRun warm = RunStream(stream, config, start, never, untraced, 0, request, warmup);
    setup_s.push_back(SecondsSince(start));
    outcome.Check(warm.completed, "stream-refresh warm-up stream failed");
    if (!warm.completed) return;
    sources[0].Check(std::move(warm), outcome);
  }
  outcome.Check(warmup.correct(), "stream-refresh warm-up op failed");
  const StreamRun& reference = sources[0].reference;

  const Pass pass = TimedPass(sources, options.seconds, untraced, outcome);
  // Streams the window never ran whole run once more, untimed, so every
  // stream's full consensus enters f1.
  std::vector<cpa::LabelSet> pooled_predictions;
  std::vector<cpa::LabelSet> pooled_truth;
  for (Source& source : sources) {
    if (!source.reference.completed) {
      std::uint64_t request = 0;
      source.Check(RunStream(source.stream, source.config, Clock::now(), never, untraced, 0,
                             request, warmup),
                   outcome);
    }
    outcome.Check(source.reference.completed, "a stream-refresh stream never completed");
    if (!source.reference.completed) return;
    const std::vector<cpa::LabelSet>& predictions =
        source.reference.final_snapshot->predictions;
    pooled_predictions.insert(pooled_predictions.end(), predictions.begin(),
                              predictions.end());
    pooled_truth.insert(pooled_truth.end(), source.stream.dataset.ground_truth.begin(),
                        source.stream.dataset.ground_truth.end());
  }
  outcome.Check(warmup.correct(), "stream-refresh untimed op failed");
  const double f1 = cpa::ComputeSetMetrics(pooled_predictions, pooled_truth).F1();

  if (!options.trace) {
    report.Metric("setup_s", Median(setup_s), "s");
    report.Metric("answers_per_s", WindowedRate(pass.completions, pass.wall_ms), "1/s");
    report.Info("answers_per_wall_s",
                static_cast<double>(pass.answers) / (pass.wall_ms / 1e3), "1/s");
    report.Metric("f1", f1, "ratio");
    report.Metric("peak_rss_mb", PeakRssMb(), "MB");
    report.Metric("fresh_p50_ms", Median(pass.fresh_ms), "ms");
    if (auto p90 = TailPercentile(pass.fresh_ms, 0.9)) {
      report.Info("fresh_p90_ms", *p90, "ms");
    }
    report.Info("batches", static_cast<double>(pass.fresh_ms.size()), "count");
    report.Info("streams_completed", static_cast<double>(pass.streams_completed),
                "count");
    return;
  }

  SpanRecorder recorder(true);
  const Pass traced = TimedPass(sources, options.seconds, recorder, outcome);
  LayerMetrics layers;
  layers.untraced_fresh_p50_ms = Median(pass.fresh_ms);
  layers.traced_fresh_p50_ms = Median(traced.fresh_ms);
  layers.coverage = LayerCoverage(recorder.spans(), {"stream.session"}, traced.wall_ms);

  // One more stream, fed in lockstep to the engine session, a bare
  // CpaOnline on 4 threads and on none, and an in-process server handler.
  // The bare consensus must equal the engine's after every batch.
  cpa::ThreadPool pool(kThreads);
  cpa::ConsensusServerOptions server_options;
  server_options.sessions.num_threads = kThreads;
  cpa::ConsensusServer server(server_options);
  const cpa::AnswerMatrix& answers = stream.dataset.answers;
  auto engine = MakeEngineStepper(config, answers, false, recorder, 0);
  auto bare = MakeBareSviStepper(config, answers, false, &pool, recorder, 0);
  auto bare_t1 = MakeBareSviStepper(config, answers, false, nullptr, recorder, 0);
  auto handler = MakeHandlerStepper(server, "stream", config, answers, recorder, 0);
  Lockstep({engine.get(), bare.get(), bare_t1.get(), handler.get()},
           stream.plan.batches, /*refresh_each_batch=*/true);
  const ReplayResult& engine_run = engine->result();
  const ReplayResult& core = bare->result();
  const ReplayResult& core_t1 = bare_t1->result();
  const ReplayResult& handled = handler->result();
  outcome.Check(engine_run.ok && engine_run.refresh_hashes == reference.hashes,
                "stream-refresh replay differs from the warm-up stream");
  outcome.Check(core.ok && core.refresh_hashes == reference.hashes,
                "bare CpaOnline consensus differs from the engine session");
  outcome.Check(core_t1.ok && core_t1.refresh_hashes == reference.hashes,
                "bare CpaOnline consensus differs between 1 and 4 threads");
  outcome.Check(handled.ok, "server handler replay failed: " + handled.error);

  double work_t4 = 0.0;
  double work_t1 = 0.0;
  for (double ms : Sums(core.observe_ms, core.refresh_ms)) work_t4 += ms;
  for (double ms : Sums(core_t1.observe_ms, core_t1.refresh_ms)) work_t1 += ms;
  layers.core_refresh_ms = Median(core.refresh_ms);
  layers.core_speedup_t4 = work_t4 > 0.0 ? work_t1 / work_t4 : 0.0;
  layers.engine_overhead_ms =
      Median(Differences(engine_run.refresh_ms, core.refresh_ms));
  layers.server_overhead_ms =
      Median(Differences(Sums(handled.observe_ms, handled.refresh_ms),
                         Sums(engine_run.observe_ms, engine_run.refresh_ms)));
  MeasureCodec(handled.observe_frames, reference.final_snapshot, layers, outcome);
  ReportLayers(layers, report);

  report.Info("core.svi.observe_p50_ms", Median(core.observe_ms), "ms");
  report.Info("core.svi.predict_p50_ms", Median(core.refresh_ms), "ms");
  if (auto p90 = TailPercentile(core.observe_ms, 0.9)) {
    report.Info("core.svi.observe_p90_ms", *p90, "ms");
  }
  if (auto p90 = TailPercentile(core.refresh_ms, 0.9)) {
    report.Info("core.svi.predict_p90_ms", *p90, "ms");
  }
  report.Info("engine.svi.snapshot_overhead_ms", layers.engine_overhead_ms, "ms");
  DumpTrace(options, recorder, report);
}

}  // namespace perfbench
