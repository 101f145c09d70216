#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

/// \file replay.h
/// \brief Layer-by-layer replays for the traced run and the correctness
/// checks. One stream of batches is fed, in lockstep, to any of: a
/// registry engine session, an in-process `ConsensusServer` (handler only,
/// no transport) and a bare `CpaOnline`. Stepping them batch by batch
/// pairs their timings under the same machine conditions, so per-layer
/// differences (engine − core, handler − engine) are taken per batch.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/svi.h"
#include "data/answer_matrix.h"
#include "data/label_set.h"
#include "engine/consensus_engine.h"
#include "engine/engine_config.h"
#include "perfbench/src/trace.h"
#include "server/consensus_server.h"
#include "util/thread_pool.h"

namespace perfbench {

using Batches = std::vector<std::vector<std::size_t>>;

/// Per-batch timings and outputs of one replayed stream.
struct ReplayResult {
  bool ok = true;
  std::string error;
  std::vector<double> observe_ms;
  std::vector<double> refresh_ms;  ///< one per refresh (per batch, or the finalize)
  std::vector<std::uint64_t> refresh_hashes;  ///< consensus digest per refresh
  std::vector<cpa::LabelSet> final_predictions;
  cpa::SharedSnapshot final_snapshot;  ///< engine replays only
  std::vector<std::string> observe_frames;  ///< handler replays only

  void Fail(std::string what);
};

/// One layer fed a stream batch by batch.
class Stepper {
 public:
  virtual ~Stepper() = default;
  /// Observes `batch` (indices into the source matrix); refreshes the
  /// consensus too when `refresh`.
  virtual void Step(const std::vector<std::size_t>& batch, bool refresh) = 0;
  /// Finalizes the session; with `refresh_is_finalize` the finalize is
  /// recorded as the stream's one refresh.
  virtual void Finish(bool refresh_is_finalize) = 0;

  ReplayResult& result() { return result_; }

 protected:
  ReplayResult result_;
};

/// A registry engine session. With `server_order`, answers are appended to
/// a session-owned stream in arrival order and a snapshot is taken at open,
/// exactly as `SessionManager` does; otherwise batches index the source.
/// Spans: `engine.observe`, `engine.refresh`, `engine.finalize`.
std::unique_ptr<Stepper> MakeEngineStepper(const cpa::EngineConfig& config,
                                           const cpa::AnswerMatrix& source,
                                           bool server_order,
                                           SpanRecorder& recorder,
                                           std::uint64_t request);

/// `server.HandleFrame` driven as a binary client would (JSON open/close,
/// binary observe/snapshot/finalize with predictions). Spans:
/// `server.handler.{observe,refresh,finalize}`.
std::unique_ptr<Stepper> MakeHandlerStepper(cpa::ConsensusServer& server,
                                            const std::string& session,
                                            const cpa::EngineConfig& config,
                                            const cpa::AnswerMatrix& source,
                                            SpanRecorder& recorder,
                                            std::uint64_t request);

/// A bare `CpaOnline` (ObserveBatch, then Predict as the refresh). Spans:
/// `core.svi.observe`, `core.svi.predict`.
std::unique_ptr<Stepper> MakeBareSviStepper(const cpa::EngineConfig& config,
                                            const cpa::AnswerMatrix& source,
                                            bool server_order, cpa::Executor* pool,
                                            SpanRecorder& recorder,
                                            std::uint64_t request);

/// Feeds `batches` to every stepper in turn, then finishes them.
void Lockstep(const std::vector<Stepper*>& steppers, const Batches& batches,
              bool refresh_each_batch);

/// Per-batch differences a[b] − b[b] over the common prefix.
std::vector<double> Differences(const std::vector<double>& a,
                                const std::vector<double>& b);

/// Element-wise sum a[b] + b[b] over the common prefix.
std::vector<double> Sums(const std::vector<double>& a, const std::vector<double>& b);

/// The answers of one batch, in order.
std::vector<cpa::Answer> BatchAnswers(const cpa::AnswerMatrix& answers,
                                      const std::vector<std::size_t>& batch);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
