/// serve-mixed: the shipped `cpa_server --tcp --num-threads 2` as a child
/// process on its default transport, loaded by one generator (this
/// process) with 4 threads on 4 connections:
///
///  - 2 writer connections speak the binary codec; each runs a closed loop
///    over its 4 sessions, doing observe batch → snapshot refresh;
///  - 2 poller connections speak JSON and send cached polls
///    (`refresh:false`, with predictions) on an open-loop schedule at a
///    fixed total rate, round-robin over the live sessions; each poll is
///    timed from when it was due.
///
/// Sessions replay `bursty-storm` streams, one seed per session; a quarter
/// use `EM`, whose refreshes refit through the offline adapter. A session
/// that reaches the end of its stream is finalized, closed and reopened.
/// Reads and writes hit the same sessions, so trading one for the other
/// shows.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>

#include "eval/metrics.h"
#include "perfbench/src/replay.h"
#include "perfbench/src/workloads.h"
#include "server/binary_codec.h"
#include "server/tcp_client.h"
#include "simulation/adversary.h"
#include "util/json.h"

namespace perfbench {
namespace {

namespace wire = cpa::server;

// Traffic shape; perfbench/NOTE.md gives the basis of each figure.
// 8 sessions of scale-1 streams: the load fig12 replays over its live
// server (8 concurrent scale-1 scenario streams), and the fewest sessions
// that give both writers the same mix with a quarter of them on EM.
constexpr std::size_t kWriters = 2;
constexpr std::size_t kSlotsPerWriter = 4;
constexpr std::size_t kSlots = kWriters * kSlotsPerWriter;
constexpr double kScale = 1.0;
constexpr std::size_t kPollers = 2;
// The lowest rate that leaves 50 polls beyond the p99 in a 25-s window;
// 4-5% of the pollers' closed-loop capacity under the write load
// (`server.poll_capacity_per_s` of the traced run), so the polls' own
// queueing stays negligible.
constexpr double kPollRate = 200.0;  ///< polls per second, all pollers together
constexpr double kCapacitySeconds = 5.0;  ///< closed-loop poll probe (traced run)
constexpr double kPollSloMs = 10.0;
constexpr std::size_t kServerThreads = 2;
constexpr int kWarmupPolls = 20;

/// One writer slot in four replays its stream with EM.
bool IsEmSlot(std::size_t slot) { return slot % kSlotsPerWriter == kSlotsPerWriter - 1; }

// ---------------------------------------------------------------------------
// The server under test, as a child process
// ---------------------------------------------------------------------------

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts `path --tcp --num-threads 2` and waits for its listening line.
  bool Start(const std::string& path, std::string* error) {
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) {
      *error = "pipe failed";
      return false;
    }
    const std::string threads = std::to_string(kServerThreads);
    std::vector<char*> argv = {const_cast<char*>(path.c_str()),
                               const_cast<char*>("--tcp"),
                               const_cast<char*>("--num-threads"),
                               const_cast<char*>(threads.c_str()), nullptr};
    pid_ = fork();
    if (pid_ < 0) {
      close(fds[0]);
      close(fds[1]);
      *error = "fork failed";
      return false;
    }
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int devnull = open("/dev/null", O_RDWR);
      dup2(devnull, 0);
      dup2(devnull, 1);
      dup2(fds[1], 2);
      execv(path.c_str(), argv.data());
      _exit(127);
    }
    close(fds[1]);
    stderr_fd_ = fds[0];
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(30);
    std::string log;
    while (Clock::now() < deadline) {
      pollfd ready{stderr_fd_, POLLIN, 0};
      if (::poll(&ready, 1, 100) <= 0) continue;
      char chunk[512];
      const ssize_t got = read(stderr_fd_, chunk, sizeof(chunk));
      if (got <= 0) break;
      log.append(chunk, static_cast<std::size_t>(got));
      const std::size_t at = log.find("listening on ");
      const std::size_t line_end = at == std::string::npos ? at : log.find(' ', at + 13);
      if (line_end != std::string::npos) {
        const std::string endpoint = log.substr(at + 13, line_end - at - 13);
        port_ = static_cast<std::uint16_t>(
            std::stoi(endpoint.substr(endpoint.rfind(':') + 1)));
        return true;
      }
    }
    *error = "server did not announce a port: " + log;
    return false;
  }

  /// SIGTERM, then waits for the drain; true on a clean exit 0.
  bool Stop() {
    if (pid_ <= 0) return false;
    kill(pid_, SIGTERM);
    int status = 0;
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(20);
    pid_t done = 0;
    while ((done = waitpid(pid_, &status, WNOHANG)) == 0 && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (done == 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
    }
    pid_ = -1;
    CloseLog();
    return done > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }

 private:
  void Kill() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    CloseLog();
  }

  void CloseLog() {
    if (stderr_fd_ >= 0) close(stderr_fd_);
    stderr_fd_ = -1;
  }

  pid_t pid_ = -1;
  int stderr_fd_ = -1;
  std::uint16_t port_ = 0;
};

// ---------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------

/// A session slot: its stream and the in-process reference consensus
/// (immutable after set-up), and the live session that replays it.
struct Slot {
  std::size_t index = 0;
  cpa::EngineConfig config;  ///< as the server parses it from the open frame
  cpa::AdversarialStream stream;
  std::vector<std::vector<cpa::Answer>> batch_answers;
  std::vector<std::uint64_t> hashes;  ///< reference consensus after each batch
  std::vector<cpa::LabelSet> final_predictions;
  cpa::SharedSnapshot final_snapshot;
  std::set<std::uint64_t> pollable;  ///< every consensus a cached poll may see

  std::shared_mutex mutex;  ///< exclusive while the session is recycled
  std::string session;      ///< guarded by `mutex`
  std::size_t incarnation = 0;
  std::size_t next_batch = 0;  ///< owned by the slot's writer
  std::size_t completed = 0;   ///< full-stream finals checked

  std::size_t num_batches() const { return batch_answers.size(); }
  std::string NextSessionId() const {
    return "s" + std::to_string(index) + "-" + std::to_string(incarnation);
  }
};

/// Hash of a JSON poll reply's predictions, as `HashPredictions` computes
/// it; nullopt when the reply is not a well-formed ok snapshot.
std::optional<std::uint64_t> PollReplyHash(const std::string& payload) {
  auto parsed = cpa::JsonValue::Parse(payload);
  if (!parsed.ok()) return std::nullopt;
  const cpa::JsonValue* ok = parsed.value().Find("ok");
  const cpa::JsonValue* predictions = parsed.value().Find("predictions");
  if (ok == nullptr || !ok->bool_value() || predictions == nullptr ||
      predictions->kind() != cpa::JsonValue::Kind::kArray) {
    return std::nullopt;
  }
  ConsensusHasher hasher;
  for (const cpa::JsonValue& row : predictions->array()) {
    hasher.Mix(row.array().size());
    for (const cpa::JsonValue& label : row.array()) {
      hasher.Mix(static_cast<std::uint64_t>(label.number_value()));
    }
  }
  return hasher.value();
}

bool JsonRoundtripOk(wire::TcpFrameClient& client, const std::string& payload) {
  auto reply = client.Roundtrip(wire::FrameKind::kJson, payload);
  if (!reply.ok()) return false;
  auto parsed = cpa::JsonValue::Parse(reply.value().payload);
  if (!parsed.ok()) return false;
  const cpa::JsonValue* ok = parsed.value().Find("ok");
  return ok != nullptr && ok->bool_value();
}

bool OpenSession(wire::TcpFrameClient& client, const Slot& slot,
                 const std::string& session) {
  cpa::JsonValue::Object open;
  open["op"] = cpa::JsonValue(std::string("open"));
  open["session"] = cpa::JsonValue(session);
  open["config"] = slot.config.ToJson();
  return JsonRoundtripOk(client, cpa::JsonValue(std::move(open)).DumpCompact());
}

bool CloseSession(wire::TcpFrameClient& client, const std::string& session) {
  return JsonRoundtripOk(client, "{\"op\":\"close\",\"session\":\"" + session + "\"}");
}

std::string PollPayload(const std::string& session) {
  return "{\"op\":\"snapshot\",\"session\":\"" + session +
         "\",\"refresh\":false,\"predictions\":true}";
}

cpa::Result<wire::BinaryResponse> BinaryRoundtrip(wire::TcpFrameClient& client,
                                                  const std::string& payload) {
  auto reply = client.Roundtrip(wire::FrameKind::kBinary, payload);
  if (!reply.ok()) return reply.status();
  return wire::DecodeBinaryResponse(reply.value().payload);
}

// ---------------------------------------------------------------------------
// Generator threads
// ---------------------------------------------------------------------------

template <typename T>
void Append(std::vector<T>& into, const std::vector<T>& from) {
  into.insert(into.end(), from.begin(), from.end());
}

struct WriterStats {
  Clock::time_point origin;  ///< start of the timed phase
  std::vector<Completion> completions;
  std::vector<double> fresh_ms;
  std::vector<double> observe_ms;  ///< observe rtt
  std::vector<double> refresh_ms;  ///< refresh rtt
  std::size_t answers = 0;
  Clock::time_point last_end;
  Outcome outcome;

  void Add(const WriterStats& other) {
    Append(completions, other.completions);
    Append(fresh_ms, other.fresh_ms);
    Append(observe_ms, other.observe_ms);
    Append(refresh_ms, other.refresh_ms);
    answers += other.answers;
    last_end = std::max(last_end, other.last_end);
    outcome.Merge(other.outcome);
  }
};

struct PollerStats {
  std::vector<double> poll_ms;  ///< due time → parsed reply
  std::vector<double> rtt_ms;   ///< send → parsed reply
  std::vector<double> lag_ms;   ///< due time → send
  std::size_t in_slo = 0;
  Outcome outcome;

  void Add(const PollerStats& other) {
    Append(poll_ms, other.poll_ms);
    Append(rtt_ms, other.rtt_ms);
    Append(lag_ms, other.lag_ms);
    in_slo += other.in_slo;
    outcome.Merge(other.outcome);
  }
};

/// Observe the slot's next batch, then refresh; checks both replies.
void WriterStep(wire::TcpFrameClient& client, Slot& slot, SpanRecorder& recorder,
                std::uint64_t request, WriterStats& stats) {
  const std::size_t b = slot.next_batch++;
  const std::string observe = wire::EncodeObserveRequest(slot.session, slot.batch_answers[b]);
  const std::string refresh = wire::EncodeSnapshotRequest(slot.session, /*refresh=*/true,
                                                          /*include_predictions=*/true);
  SpanRecorder::Scope root(recorder, "serve.step", request);
  const Clock::time_point start = Clock::now();
  cpa::Result<wire::BinaryResponse> observed = wire::BinaryResponse();
  {
    SpanRecorder::Scope span(recorder, "rtt.observe", request, root.id());
    observed = BinaryRoundtrip(client, observe);
  }
  const Clock::time_point observed_at = Clock::now();
  cpa::Result<wire::BinaryResponse> refreshed = wire::BinaryResponse();
  {
    SpanRecorder::Scope span(recorder, "rtt.refresh", request, root.id());
    refreshed = BinaryRoundtrip(client, refresh);
  }
  const Clock::time_point end = Clock::now();
  const bool observe_ok = observed.ok() && observed.value().ok &&
                          observed.value().ack.batches_seen == b + 1;
  const bool refresh_ok = refreshed.ok() && refreshed.value().ok &&
                          refreshed.value().has_predictions;
  stats.outcome.Op(observe_ok, "serve-mixed observe");
  stats.outcome.Op(refresh_ok, "serve-mixed refresh");
  if (!observe_ok || !refresh_ok) return;
  stats.outcome.Check(HashPredictions(refreshed.value().predictions) == slot.hashes[b],
                      "serve-mixed refresh differs from the in-process replay");
  stats.fresh_ms.push_back(MillisBetween(start, end));
  stats.completions.push_back(
      {MillisBetween(stats.origin, end), static_cast<double>(slot.batch_answers[b].size())});
  stats.observe_ms.push_back(MillisBetween(start, observed_at));
  stats.refresh_ms.push_back(MillisBetween(observed_at, end));
  stats.answers += slot.batch_answers[b].size();
}

/// Finalizes the slot's session and checks its consensus against the
/// replay of the same prefix; with `reopen`, closes it and opens the next
/// incarnation, otherwise just closes it.
void FinalizeSession(wire::TcpFrameClient& client, Slot& slot, bool reopen,
                     SpanRecorder& recorder, std::uint64_t request, Outcome& outcome) {
  SpanRecorder::Scope root(recorder, "serve.recycle", request);
  std::unique_lock<std::shared_mutex> lock(slot.mutex);
  cpa::Result<wire::BinaryResponse> finalized = wire::BinaryResponse();
  {
    SpanRecorder::Scope span(recorder, "rtt.finalize", request, root.id());
    finalized = BinaryRoundtrip(
        client, wire::EncodeFinalizeRequest(slot.session, /*include_predictions=*/true));
  }
  const bool ok = finalized.ok() && finalized.value().ok;
  outcome.Op(ok, "serve-mixed finalize");
  if (ok) {
    const std::size_t seen = slot.next_batch;
    const std::vector<cpa::LabelSet>& got = finalized.value().predictions;
    const std::uint64_t expected =
        seen == 0 ? HashPredictions({}) : slot.hashes[seen - 1];
    outcome.Check(HashPredictions(got) == expected,
                  "serve-mixed final consensus differs from the in-process replay");
    if (seen == slot.num_batches()) {
      outcome.Check(got == slot.final_predictions,
                    "serve-mixed full-stream consensus differs from the replay");
      ++slot.completed;
    }
  }
  {
    SpanRecorder::Scope span(recorder, "rtt.close", request, root.id());
    outcome.Op(CloseSession(client, slot.session), "serve-mixed close");
  }
  if (!reopen) return;
  ++slot.incarnation;
  slot.next_batch = 0;
  slot.session = slot.NextSessionId();
  SpanRecorder::Scope span(recorder, "rtt.open", request, root.id());
  outcome.Op(OpenSession(client, slot, slot.session), "serve-mixed open");
}

void WriterLoop(wire::TcpFrameClient& client, std::vector<Slot*> mine,
                Clock::time_point start, Clock::time_point deadline,
                SpanRecorder& recorder, std::uint64_t request_base, WriterStats& stats) {
  std::this_thread::sleep_until(start);
  stats.origin = start;
  std::uint64_t request = request_base;
  for (std::size_t step = 0; Clock::now() < deadline; ++step) {
    Slot& slot = *mine[step % mine.size()];
    if (slot.next_batch == slot.num_batches()) {
      FinalizeSession(client, slot, /*reopen=*/true, recorder, ++request, stats.outcome);
    } else {
      WriterStep(client, slot, recorder, ++request, stats);
    }
  }
  stats.last_end = Clock::now();
}

/// Sends cached polls open-loop at `rate` polls per second over all
/// pollers, or back to back (closed loop) when `rate` is 0.
void PollerLoop(wire::TcpFrameClient& client, std::vector<Slot>& slots, std::size_t poller,
                double rate, Clock::time_point start, Clock::time_point deadline,
                SpanRecorder& recorder, std::uint64_t request_base, PollerStats& stats) {
  const double period_s = rate > 0.0 ? static_cast<double>(kPollers) / rate : 0.0;
  const double offset = static_cast<double>(poller) / static_cast<double>(kPollers);
  std::size_t next_slot = poller;
  for (std::uint64_t i = 0;; ++i) {
    const Clock::time_point due =
        rate > 0.0 ? start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     (static_cast<double>(i) + offset) * period_s))
                   : std::max(start, Clock::now());
    if (due >= deadline) break;
    std::this_thread::sleep_until(due);
    const Clock::time_point sent = Clock::now();
    Slot* slot = nullptr;
    for (std::size_t tries = 0; tries < slots.size() && slot == nullptr; ++tries) {
      Slot& candidate = slots[next_slot++ % slots.size()];
      if (candidate.mutex.try_lock_shared()) slot = &candidate;
    }
    bool ok = false;
    if (slot != nullptr) {
      const std::uint64_t request = request_base + i;
      SpanRecorder::Scope root(recorder, "serve.poll", request);
      cpa::Result<wire::Frame> reply = wire::Frame();
      {
        SpanRecorder::Scope span(recorder, "rtt.poll", request, root.id());
        reply = client.Roundtrip(wire::FrameKind::kJson, PollPayload(slot->session));
      }
      const std::optional<std::uint64_t> hash =
          reply.ok() ? PollReplyHash(reply.value().payload) : std::nullopt;
      ok = hash.has_value();
      if (ok) {
        stats.outcome.Check(slot->pollable.count(*hash) > 0,
                            "serve-mixed poll returned a consensus the replay never had");
      }
      slot->mutex.unlock_shared();
    }
    const Clock::time_point done = Clock::now();
    stats.outcome.Op(ok, "serve-mixed poll");
    const double poll_ms = MillisBetween(due, done);
    stats.poll_ms.push_back(poll_ms);
    stats.rtt_ms.push_back(MillisBetween(sent, done));
    stats.lag_ms.push_back(MillisBetween(due, sent));
    if (ok && poll_ms <= kPollSloMs) ++stats.in_slo;
  }
}

/// The server process plus the generator's four connections.
struct Rig {
  ServerProcess server;
  std::vector<wire::TcpFrameClient> writers;
  std::vector<wire::TcpFrameClient> pollers;

  /// Closes the connections and stops the server; true on a clean exit.
  bool Stop() {
    for (auto& client : writers) client.Close();
    for (auto& client : pollers) client.Close();
    return server.Stop();
  }
};

/// Starts the server, connects, opens every slot's session and runs the
/// warm-up (one full stream per writer connection, polls per poller).
bool SetUp(const RunOptions& options, std::vector<Slot>& slots, Rig& rig,
           Outcome& outcome) {
  std::string error;
  if (!rig.server.Start(options.server_path, &error)) {
    outcome.Check(false, "serve-mixed: " + error);
    return false;
  }
  for (std::size_t c = 0; c < kWriters + kPollers; ++c) {
    auto connected = wire::TcpFrameClient::Connect("127.0.0.1", rig.server.port());
    if (!connected.ok()) {
      outcome.Check(false, "serve-mixed connect: " + connected.status().ToString());
      return false;
    }
    (c < kWriters ? rig.writers : rig.pollers).push_back(std::move(connected).value());
  }
  for (Slot& slot : slots) {
    slot.incarnation = 0;
    slot.next_batch = 0;
    slot.session = slot.NextSessionId();
    outcome.Check(OpenSession(rig.writers[slot.index / kSlotsPerWriter], slot, slot.session),
                  "serve-mixed open");
  }
  SpanRecorder untraced(false);
  for (std::size_t w = 0; w < kWriters; ++w) {
    // Replays the writer's first stream under a throw-away session.
    Slot& source = slots[w * kSlotsPerWriter];
    Slot warm;
    warm.index = source.index;
    warm.config = source.config;
    warm.batch_answers = source.batch_answers;
    warm.hashes = source.hashes;
    warm.final_predictions = source.final_predictions;
    warm.session = "warm-" + std::to_string(w);
    outcome.Check(OpenSession(rig.writers[w], warm, warm.session), "warm-up open");
    WriterStats stats;
    while (warm.next_batch < warm.num_batches()) {
      WriterStep(rig.writers[w], warm, untraced, 0, stats);
    }
    FinalizeSession(rig.writers[w], warm, /*reopen=*/false, untraced, 0, stats.outcome);
    outcome.Check(stats.outcome.correct() && warm.completed == 1,
                  "serve-mixed warm-up stream failed");
  }
  for (std::size_t p = 0; p < kPollers; ++p) {
    for (int i = 0; i < kWarmupPolls; ++i) {
      const Slot& slot = slots[static_cast<std::size_t>(i) % slots.size()];
      auto reply = rig.pollers[p].Roundtrip(wire::FrameKind::kJson, PollPayload(slot.session));
      outcome.Check(reply.ok() && PollReplyHash(reply.value().payload).has_value(),
                    "serve-mixed warm-up poll failed");
    }
  }
  return outcome.correct();
}

struct PassResult {
  WriterStats writes;  ///< both writers
  PollerStats polls;   ///< both pollers
  double wall_ms = 0.0;
  double coverage = 0.0;
};

/// One measured window: writers and pollers (at `poll_rate`, see
/// PollerLoop) run until `seconds` pass.
PassResult RunPass(Rig& rig, std::vector<Slot>& slots, double seconds, double poll_rate,
                   SpanRecorder& recorder, Outcome& outcome) {
  std::vector<WriterStats> writer_stats(kWriters);
  std::vector<PollerStats> poller_stats(kPollers);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kWriters; ++w) {
    std::vector<Slot*> mine;
    for (std::size_t k = 0; k < kSlotsPerWriter; ++k) {
      mine.push_back(&slots[w * kSlotsPerWriter + k]);
    }
    threads.emplace_back(WriterLoop, std::ref(rig.writers[w]), mine, start, deadline,
                         std::ref(recorder), (w + 1) * 1'000'000'000ULL,
                         std::ref(writer_stats[w]));
  }
  for (std::size_t p = 0; p < kPollers; ++p) {
    threads.emplace_back(PollerLoop, std::ref(rig.pollers[p]), std::ref(slots), p, poll_rate,
                         start, deadline, std::ref(recorder), (p + 1) * 1'000'000'000'000ULL,
                         std::ref(poller_stats[p]));
  }
  for (std::thread& thread : threads) thread.join();

  PassResult pass;
  pass.writes.last_end = start;
  for (const WriterStats& stats : writer_stats) pass.writes.Add(stats);
  for (const PollerStats& stats : poller_stats) pass.polls.Add(stats);
  outcome.Merge(pass.writes.outcome);
  outcome.Merge(pass.polls.outcome);
  pass.wall_ms = MillisBetween(start, pass.writes.last_end);
  if (recorder.enabled()) {
    const std::vector<Span> spans = recorder.spans();
    const double writer_wall = pass.wall_ms * static_cast<double>(kWriters);
    pass.coverage = LayerCoverage(spans, {"serve.step", "serve.recycle"}, writer_wall);
  }
  return pass;
}

/// Builds every slot: its stream (seed per session) and the in-process
/// engine replay that the server's answers are checked against.
bool BuildSlots(const RunOptions& options, std::vector<Slot>& slots, Outcome& outcome) {
  SpanRecorder untraced(false);
  for (std::size_t k = 0; k < slots.size(); ++k) {
    Slot& slot = slots[k];
    slot.index = k;
    bool found = false;
    for (const cpa::AdversarialScenario& scenario :
         cpa::StandardScenarioMatrix(options.seed * kSlots + k, kScale)) {
      if (scenario.name != "bursty-storm") continue;
      auto generated = cpa::GenerateAdversarialStream(scenario.config);
      if (!generated.ok()) break;
      slot.stream = std::move(generated).value();
      found = true;
    }
    outcome.Check(found, "bursty-storm stream could not be generated");
    if (!found) return false;
    const cpa::EngineConfig config = cpa::EngineConfig::ForDataset(
        IsEmSlot(k) ? "EM" : "CPA-SVI", slot.stream.dataset);
    auto parsed = cpa::EngineConfig::FromJson(config.ToJson());
    outcome.Check(parsed.ok(), "engine config does not survive its JSON form");
    if (!parsed.ok()) return false;
    slot.config = parsed.value();
    for (const std::vector<std::size_t>& batch : slot.stream.plan.batches) {
      slot.batch_answers.push_back(BatchAnswers(slot.stream.dataset.answers, batch));
    }
    auto replay = MakeEngineStepper(slot.config, slot.stream.dataset.answers,
                                    /*server_order=*/true, untraced, 0);
    Lockstep({replay.get()}, slot.stream.plan.batches, /*refresh_each_batch=*/true);
    const ReplayResult& reference = replay->result();
    outcome.Check(reference.ok, "in-process replay failed: " + reference.error);
    if (!reference.ok) return false;
    slot.hashes = reference.refresh_hashes;
    slot.final_predictions = reference.final_predictions;
    slot.final_snapshot = reference.final_snapshot;
    slot.pollable.insert(slot.hashes.begin(), slot.hashes.end());
    slot.pollable.insert(HashPredictions({}));
  }
  return true;
}

/// The traced run's layers underneath the wire: every slot's stream fed in
/// lockstep to an engine session, an in-process server handler and (for
/// CPA-SVI) bare CpaOnline instances on 2, 1 and 4 threads.
void MeasureLayers(std::vector<Slot>& slots, const PassResult& traced,
                   SpanRecorder& recorder, LayerMetrics& layers, Report& report,
                   Outcome& outcome) {
  cpa::ConsensusServerOptions server_options;
  server_options.sessions.num_threads = kServerThreads;
  cpa::ConsensusServer server(server_options);
  cpa::ThreadPool pool2(kServerThreads);
  cpa::ThreadPool pool4(4);
  std::vector<double> core_refresh;
  std::vector<double> engine_minus_core;
  std::vector<double> handler_minus_engine;
  std::vector<double> handler_observe;
  std::vector<double> handler_refresh_svi;
  std::vector<double> handler_refresh_em;
  std::vector<std::string> observe_frames;
  double work_t1 = 0.0;
  double work_t4 = 0.0;
  for (Slot& slot : slots) {
    const cpa::AnswerMatrix& answers = slot.stream.dataset.answers;
    // The engine replay runs on as many threads as the server's sessions.
    cpa::EngineConfig engine_config = slot.config;
    engine_config.num_threads = kServerThreads;
    auto engine = MakeEngineStepper(engine_config, answers, true, recorder, slot.index);
    auto handler = MakeHandlerStepper(server, "replay-" + std::to_string(slot.index),
                                      slot.config, answers, recorder, slot.index);
    std::vector<std::unique_ptr<Stepper>> bare;
    std::vector<Stepper*> steppers = {engine.get(), handler.get()};
    if (!IsEmSlot(slot.index)) {
      for (cpa::Executor* pool : {static_cast<cpa::Executor*>(&pool2),
                                  static_cast<cpa::Executor*>(nullptr),
                                  static_cast<cpa::Executor*>(&pool4)}) {
        bare.push_back(MakeBareSviStepper(slot.config, answers, true, pool, recorder,
                                          slot.index));
        steppers.push_back(bare.back().get());
      }
    }
    Lockstep(steppers, slot.stream.plan.batches, /*refresh_each_batch=*/true);
    const ReplayResult& engine_run = engine->result();
    const ReplayResult& handled = handler->result();
    outcome.Check(engine_run.ok && engine_run.refresh_hashes == slot.hashes,
                  "serve-mixed engine replay is not deterministic");
    outcome.Check(handled.ok && handled.refresh_hashes == slot.hashes,
                  "in-process handler replay differs from the engine replay");
    const std::vector<double> engine_fresh = Sums(engine_run.observe_ms, engine_run.refresh_ms);
    Append(handler_minus_engine,
           Differences(Sums(handled.observe_ms, handled.refresh_ms), engine_fresh));
    Append(handler_observe, handled.observe_ms);
    Append(IsEmSlot(slot.index) ? handler_refresh_em : handler_refresh_svi,
           handled.refresh_ms);
    Append(observe_frames, handled.observe_frames);
    if (bare.empty()) continue;
    const ReplayResult& core = bare[0]->result();
    outcome.Check(core.ok && core.refresh_hashes == slot.hashes,
                  "bare CpaOnline differs from the engine replay");
    Append(core_refresh, core.refresh_ms);
    Append(engine_minus_core, Differences(engine_run.refresh_ms, core.refresh_ms));
    for (double ms : Sums(bare[1]->result().observe_ms, bare[1]->result().refresh_ms)) {
      work_t1 += ms;
    }
    for (double ms : Sums(bare[2]->result().observe_ms, bare[2]->result().refresh_ms)) {
      work_t4 += ms;
    }
  }

  // Handler cost of one cached poll, on a live session holding slot 0's
  // full-stream consensus.
  Slot& first = slots.front();
  auto poll_session = MakeHandlerStepper(server, "poll", first.config,
                                         first.stream.dataset.answers, recorder, 0);
  for (const std::vector<std::size_t>& batch : first.stream.plan.batches) {
    poll_session->Step(batch, true);
  }
  const wire::Frame poll_frame{wire::FrameKind::kJson, PollPayload("poll")};
  const double handler_poll_ms =
      PerCallMillis([&server, &poll_frame] { server.HandleFrame(poll_frame); });
  poll_session->Finish(false);

  layers.core_refresh_ms = Median(core_refresh);
  layers.core_speedup_t4 = work_t4 > 0.0 ? work_t1 / work_t4 : 0.0;
  layers.engine_overhead_ms = Median(engine_minus_core);
  layers.server_overhead_ms = Median(handler_minus_engine);
  MeasureCodec(observe_frames, first.final_snapshot, layers, outcome);

  const double rtt_observe = Median(traced.writes.observe_ms);
  const double rtt_poll = Median(traced.polls.rtt_ms);
  report.Info("server.rtt.observe_p50_ms", rtt_observe, "ms");
  report.Info("server.rtt.refresh_p50_ms", Median(traced.writes.refresh_ms), "ms");
  report.Info("server.rtt.poll_p50_ms", rtt_poll, "ms");
  report.Info("server.handler.observe_p50_ms", Median(handler_observe), "ms");
  std::vector<double> handler_refresh = handler_refresh_svi;
  Append(handler_refresh, handler_refresh_em);
  report.Info("server.handler.refresh_p50_ms", Median(handler_refresh), "ms");
  report.Info("server.handler.poll_ms", handler_poll_ms, "ms");
  report.Info("server.transport.observe_p50_ms", rtt_observe - Median(handler_observe), "ms");
  report.Info("server.transport.poll_p50_ms", rtt_poll - handler_poll_ms, "ms");
  report.Info("engine.svi.refresh_p50_ms", Median(handler_refresh_svi), "ms");
  report.Info("engine.em.refresh_p50_ms", Median(handler_refresh_em), "ms");
  if (auto p99 = TailPercentile(traced.polls.lag_ms, 0.99)) {
    report.Info("gen.poll_lag_p99_ms", *p99, "ms");
  }
}

}  // namespace

void RunServeMixed(const RunOptions& options, Report& report, Outcome& outcome) {
  std::vector<Slot> slots(kSlots);
  if (!BuildSlots(options, slots, outcome)) return;
  std::size_t answers_per_round = 0;
  for (const Slot& slot : slots) answers_per_round += slot.stream.dataset.answers.num_answers();
  report.Info("answers_per_stream_round", static_cast<double>(answers_per_round), "count");

  // Set-up, kSetupRepeats times: server start, connections, session opens
  // and the warm-up. Only the last rig is measured.
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    if (rig != nullptr) outcome.Check(rig->Stop(), "cpa_server did not exit cleanly");
    rig = std::make_unique<Rig>();
    const Clock::time_point start = Clock::now();
    const bool ready = SetUp(options, slots, *rig, outcome);
    setup_s.push_back(SecondsSince(start));
    if (!ready) return;
  }

  SpanRecorder untraced(false);
  const PassResult pass = RunPass(*rig, slots, options.seconds, kPollRate, untraced, outcome);
  SpanRecorder recorder(options.trace);
  PassResult traced;
  double poll_capacity = 0.0;
  if (options.trace) {
    traced = RunPass(*rig, slots, options.seconds, kPollRate, recorder, outcome);
    // The pollers' closed-loop capacity under the same write load, the
    // figure kPollRate is derived from.
    const PassResult closed = RunPass(*rig, slots, kCapacitySeconds, 0.0, untraced, outcome);
    poll_capacity = static_cast<double>(closed.polls.poll_ms.size()) / kCapacitySeconds;
  }

  // Every slot's full-stream consensus is checked at least once: slots the
  // window cut short run to the end of their stream, untimed.
  SpanRecorder unrecorded(false);
  Outcome drain;
  for (Slot& slot : slots) {
    wire::TcpFrameClient& client = rig->writers[slot.index / kSlotsPerWriter];
    WriterStats stats;
    while (slot.completed == 0) {
      if (slot.next_batch == slot.num_batches()) {
        FinalizeSession(client, slot, /*reopen=*/true, unrecorded, 0, stats.outcome);
      } else {
        WriterStep(client, slot, unrecorded, 0, stats);
      }
      if (!stats.outcome.correct()) break;
    }
    drain.Merge(stats.outcome);
  }
  // At the end, every session finalizes (checked against the replay of
  // the batches it saw) and closes.
  for (Slot& slot : slots) {
    FinalizeSession(rig->writers[slot.index / kSlotsPerWriter], slot, /*reopen=*/false,
                    unrecorded, 0, drain);
  }
  outcome.Check(drain.correct(), "serve-mixed drain or teardown failed");
  const double server_rss_mb = PeakRssMb(rig->server.pid());
  outcome.Check(rig->Stop(), "cpa_server did not exit cleanly");

  std::vector<cpa::LabelSet> pooled_predictions;
  std::vector<cpa::LabelSet> pooled_truth;
  for (const Slot& slot : slots) {
    Append(pooled_predictions, slot.final_predictions);
    Append(pooled_truth, slot.stream.dataset.ground_truth);
  }
  const double f1 = cpa::ComputeSetMetrics(pooled_predictions, pooled_truth).F1();

  if (!options.trace) {
    report.Metric("setup_s", Median(setup_s), "s");
    report.Metric("answers_per_s", WindowedRate(pass.writes.completions, pass.wall_ms), "1/s");
    report.Info("answers_per_wall_s",
                static_cast<double>(pass.writes.answers) / (pass.wall_ms / 1e3), "1/s");
    report.Metric("f1", f1, "ratio");
    report.Metric("peak_rss_mb", server_rss_mb, "MB");
    report.Metric("fresh_p50_ms", Median(pass.writes.fresh_ms), "ms");
    if (auto p90 = TailPercentile(pass.writes.fresh_ms, 0.9)) {
      report.Info("fresh_p90_ms", *p90, "ms");
    }
    report.Info("poll_p50_ms", Median(pass.polls.poll_ms), "ms");
    if (auto p99 = TailPercentile(pass.polls.poll_ms, 0.99)) {
      report.Info("poll_p99_ms", *p99, "ms");
    }
    report.Info("poll_slo_ratio",
                pass.polls.poll_ms.empty()
                    ? 0.0
                    : static_cast<double>(pass.polls.in_slo) /
                          static_cast<double>(pass.polls.poll_ms.size()),
                "ratio");
    report.Info("polls", static_cast<double>(pass.polls.poll_ms.size()), "count");
    report.Info("writer_steps", static_cast<double>(pass.writes.fresh_ms.size()), "count");
    if (auto p99 = TailPercentile(pass.polls.lag_ms, 0.99)) {
      report.Info("gen.poll_lag_p99_ms", *p99, "ms");
    }
    return;
  }

  LayerMetrics layers;
  layers.untraced_fresh_p50_ms = Median(pass.writes.fresh_ms);
  layers.traced_fresh_p50_ms = Median(traced.writes.fresh_ms);
  layers.coverage = traced.coverage;
  MeasureLayers(slots, traced, recorder, layers, report, outcome);
  report.Info("server.poll_capacity_per_s", poll_capacity, "1/s");
  ReportLayers(layers, report);
  DumpTrace(options, recorder, report);
}

}  // namespace perfbench
