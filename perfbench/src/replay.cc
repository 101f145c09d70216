#include "perfbench/src/replay.h"

#include <algorithm>
#include <utility>

#include "engine/engine_registry.h"
#include "server/binary_codec.h"
#include "util/json.h"

namespace perfbench {

using cpa::AnswerMatrix;
using cpa::Result;
using cpa::SharedSnapshot;

void ReplayResult::Fail(std::string what) {
  if (ok) error = std::move(what);
  ok = false;
}

std::vector<cpa::Answer> BatchAnswers(const AnswerMatrix& answers,
                                      const std::vector<std::size_t>& batch) {
  std::vector<cpa::Answer> out;
  out.reserve(batch.size());
  for (std::size_t index : batch) out.push_back(answers.answer(index));
  return out;
}

std::vector<double> Differences(const std::vector<double>& a,
                                const std::vector<double>& b) {
  std::vector<double> out;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    out.push_back(a[i] - b[i]);
  }
  return out;
}

std::vector<double> Sums(const std::vector<double>& a, const std::vector<double>& b) {
  std::vector<double> out;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    out.push_back(a[i] + b[i]);
  }
  return out;
}

void Lockstep(const std::vector<Stepper*>& steppers, const Batches& batches,
              bool refresh_each_batch) {
  for (const std::vector<std::size_t>& batch : batches) {
    for (Stepper* stepper : steppers) stepper->Step(batch, refresh_each_batch);
  }
  for (Stepper* stepper : steppers) stepper->Finish(!refresh_each_batch);
}

namespace {

/// The indices a batch is fed under: the source's own, or — in server
/// order — fresh indices of `stream` after appending the batch to it.
class BatchSource {
 public:
  BatchSource(const AnswerMatrix& source, bool server_order)
      : source_(source),
        server_order_(server_order),
        stream_(source.num_items(), source.num_workers()) {}

  const AnswerMatrix& matrix() const { return server_order_ ? stream_ : source_; }

  /// Returns the indices to feed; false when appending fails.
  bool Feed(const std::vector<std::size_t>& batch, std::vector<std::size_t>& indices) {
    if (!server_order_) {
      indices = batch;
      return true;
    }
    indices.clear();
    for (std::size_t index : batch) {
      const cpa::Answer& answer = source_.answer(index);
      indices.push_back(stream_.num_answers());
      if (!stream_.Add(answer.item, answer.worker, answer.labels).ok()) return false;
    }
    return true;
  }

 private:
  const AnswerMatrix& source_;
  const bool server_order_;
  AnswerMatrix stream_;  // address-stable: engines bind to it
};

class EngineStepper final : public Stepper {
 public:
  EngineStepper(const cpa::EngineConfig& config, const AnswerMatrix& source,
                bool server_order, SpanRecorder& recorder, std::uint64_t request)
      : source_(source, server_order), recorder_(recorder), request_(request) {
    auto opened = cpa::EngineRegistry::Global().Open(config);
    if (!opened.ok()) {
      result_.Fail(opened.status().ToString());
      return;
    }
    engine_ = std::move(opened).value();
    if (server_order && !engine_->Snapshot().ok()) result_.Fail("seed snapshot");
  }

  void Step(const std::vector<std::size_t>& batch, bool refresh) override {
    if (engine_ == nullptr) return;
    std::vector<std::size_t> indices;
    const bool fed = source_.Feed(batch, indices);
    Clock::time_point start = Clock::now();
    {
      SpanRecorder::Scope span(recorder_, "engine.observe", request_);
      if (!fed || !engine_->Observe({&source_.matrix(), indices}).ok()) {
        result_.Fail("engine observe");
      }
    }
    result_.observe_ms.push_back(MillisBetween(start, Clock::now()));
    if (!refresh) return;
    start = Clock::now();
    Result<SharedSnapshot> snapshot = SharedSnapshot();
    {
      SpanRecorder::Scope span(recorder_, "engine.refresh", request_);
      snapshot = engine_->Snapshot();
    }
    result_.refresh_ms.push_back(MillisBetween(start, Clock::now()));
    if (!snapshot.ok()) {
      result_.Fail(snapshot.status().ToString());
      return;
    }
    result_.refresh_hashes.push_back(HashPredictions(snapshot.value()->predictions));
  }

  void Finish(bool refresh_is_finalize) override {
    if (engine_ == nullptr) return;
    const Clock::time_point start = Clock::now();
    Result<SharedSnapshot> finalized = SharedSnapshot();
    {
      SpanRecorder::Scope span(recorder_, "engine.finalize", request_);
      finalized = engine_->Finalize();
    }
    if (refresh_is_finalize) result_.refresh_ms.push_back(MillisBetween(start, Clock::now()));
    if (!finalized.ok()) {
      result_.Fail(finalized.status().ToString());
      return;
    }
    result_.final_snapshot = finalized.value();
    result_.final_predictions = finalized.value()->predictions;
    if (refresh_is_finalize) {
      result_.refresh_hashes.push_back(HashPredictions(result_.final_predictions));
    }
  }

 private:
  BatchSource source_;
  SpanRecorder& recorder_;
  const std::uint64_t request_;
  std::unique_ptr<cpa::ConsensusEngine> engine_;
};

bool JsonOk(const cpa::server::Frame& reply) {
  auto parsed = cpa::JsonValue::Parse(reply.payload);
  if (!parsed.ok()) return false;
  const cpa::JsonValue* ok = parsed.value().Find("ok");
  return ok != nullptr && ok->bool_value();
}

class HandlerStepper final : public Stepper {
 public:
  HandlerStepper(cpa::ConsensusServer& server, std::string session,
                 const cpa::EngineConfig& config, const AnswerMatrix& source,
                 SpanRecorder& recorder, std::uint64_t request)
      : server_(server),
        session_(std::move(session)),
        source_(source),
        recorder_(recorder),
        request_(request) {
    cpa::JsonValue::Object open;
    open["op"] = cpa::JsonValue(std::string("open"));
    open["session"] = cpa::JsonValue(session_);
    open["config"] = config.ToJson();
    if (!JsonOk(Handle(cpa::server::FrameKind::kJson,
                       cpa::JsonValue(std::move(open)).DumpCompact(),
                       "server.handler.open", nullptr))) {
      result_.Fail("handler open");
    }
  }

  void Step(const std::vector<std::size_t>& batch, bool refresh) override {
    namespace wire = cpa::server;
    result_.observe_frames.push_back(
        wire::EncodeObserveRequest(session_, BatchAnswers(source_, batch)));
    double ms = 0.0;
    const wire::Frame observed = Handle(wire::FrameKind::kBinary,
                                        result_.observe_frames.back(),
                                        "server.handler.observe", &ms);
    result_.observe_ms.push_back(ms);
    auto ack = wire::DecodeBinaryResponse(observed.payload);
    if (!ack.ok() || !ack.value().ok) result_.Fail("handler observe");
    if (!refresh) return;
    const wire::Frame refreshed = Handle(
        wire::FrameKind::kBinary,
        wire::EncodeSnapshotRequest(session_, /*refresh=*/true,
                                    /*include_predictions=*/true),
        "server.handler.refresh", &ms);
    result_.refresh_ms.push_back(ms);
    auto snapshot = wire::DecodeBinaryResponse(refreshed.payload);
    if (!snapshot.ok() || !snapshot.value().ok) {
      result_.Fail("handler refresh");
      return;
    }
    result_.refresh_hashes.push_back(HashPredictions(snapshot.value().predictions));
  }

  void Finish(bool refresh_is_finalize) override {
    namespace wire = cpa::server;
    double ms = 0.0;
    const wire::Frame finalized = Handle(
        wire::FrameKind::kBinary,
        wire::EncodeFinalizeRequest(session_, /*include_predictions=*/true),
        "server.handler.finalize", &ms);
    if (refresh_is_finalize) result_.refresh_ms.push_back(ms);
    auto reply = wire::DecodeBinaryResponse(finalized.payload);
    if (!reply.ok() || !reply.value().ok) {
      result_.Fail("handler finalize");
    } else {
      result_.final_predictions = std::move(reply.value().predictions);
      if (refresh_is_finalize) {
        result_.refresh_hashes.push_back(HashPredictions(result_.final_predictions));
      }
    }
    if (!JsonOk(Handle(wire::FrameKind::kJson,
                       "{\"op\":\"close\",\"session\":\"" + session_ + "\"}",
                       "server.handler.close", nullptr))) {
      result_.Fail("handler close");
    }
  }

 private:
  cpa::server::Frame Handle(cpa::server::FrameKind kind, std::string payload,
                            const char* span_name, double* ms) {
    const cpa::server::Frame frame{kind, std::move(payload)};
    const Clock::time_point start = Clock::now();
    cpa::server::Frame reply;
    {
      SpanRecorder::Scope span(recorder_, span_name, request_);
      reply = server_.HandleFrame(frame);
    }
    if (ms != nullptr) *ms = MillisBetween(start, Clock::now());
    return reply;
  }

  cpa::ConsensusServer& server_;
  const std::string session_;
  const AnswerMatrix& source_;
  SpanRecorder& recorder_;
  const std::uint64_t request_;
};

class BareSviStepper final : public Stepper {
 public:
  BareSviStepper(const cpa::EngineConfig& config, const AnswerMatrix& source,
                 bool server_order, cpa::Executor* pool, SpanRecorder& recorder,
                 std::uint64_t request)
      : source_(source, server_order), recorder_(recorder), request_(request) {
    auto created = cpa::CpaOnline::Create(config.num_items, config.num_workers,
                                          config.num_labels, config.cpa,
                                          config.svi, pool);
    if (!created.ok()) {
      result_.Fail(created.status().ToString());
      return;
    }
    online_ = std::make_unique<cpa::CpaOnline>(std::move(created).value());
  }

  void Step(const std::vector<std::size_t>& batch, bool refresh) override {
    if (online_ == nullptr) return;
    std::vector<std::size_t> indices;
    const bool fed = source_.Feed(batch, indices);
    Clock::time_point start = Clock::now();
    {
      SpanRecorder::Scope span(recorder_, "core.svi.observe", request_);
      if (!fed || !online_->ObserveBatch(source_.matrix(), indices).ok()) {
        result_.Fail("bare observe");
      }
    }
    result_.observe_ms.push_back(MillisBetween(start, Clock::now()));
    if (!refresh) return;
    start = Clock::now();
    Result<cpa::CpaPrediction> prediction = cpa::CpaPrediction();
    {
      SpanRecorder::Scope span(recorder_, "core.svi.predict", request_);
      prediction = online_->Predict(source_.matrix());
    }
    result_.refresh_ms.push_back(MillisBetween(start, Clock::now()));
    if (!prediction.ok()) {
      result_.Fail(prediction.status().ToString());
      return;
    }
    result_.refresh_hashes.push_back(HashPredictions(prediction.value().labels));
    result_.final_predictions = std::move(prediction.value().labels);
  }

  void Finish(bool) override {}

 private:
  BatchSource source_;
  SpanRecorder& recorder_;
  const std::uint64_t request_;
  std::unique_ptr<cpa::CpaOnline> online_;
};

}  // namespace

std::unique_ptr<Stepper> MakeEngineStepper(const cpa::EngineConfig& config,
                                           const AnswerMatrix& source,
                                           bool server_order, SpanRecorder& recorder,
                                           std::uint64_t request) {
  return std::make_unique<EngineStepper>(config, source, server_order, recorder,
                                         request);
}

std::unique_ptr<Stepper> MakeHandlerStepper(cpa::ConsensusServer& server,
                                            const std::string& session,
                                            const cpa::EngineConfig& config,
                                            const AnswerMatrix& source,
                                            SpanRecorder& recorder,
                                            std::uint64_t request) {
  return std::make_unique<HandlerStepper>(server, session, config, source, recorder,
                                          request);
}

std::unique_ptr<Stepper> MakeBareSviStepper(const cpa::EngineConfig& config,
                                            const AnswerMatrix& source,
                                            bool server_order, cpa::Executor* pool,
                                            SpanRecorder& recorder,
                                            std::uint64_t request) {
  return std::make_unique<BareSviStepper>(config, source, server_order, pool,
                                          recorder, request);
}

}  // namespace perfbench
