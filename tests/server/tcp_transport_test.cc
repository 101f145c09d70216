#include "server/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "server/binary_codec.h"
#include "server/consensus_server.h"
#include "server/protocol.h"
#include "server/tcp_client.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/string_utils.h"

namespace cpa {
namespace {

using server::BinaryResponse;
using server::Frame;
using server::FrameKind;
using server::TcpFrameClient;

/// A transport bound to an ephemeral port for one test.
struct TestServer {
  explicit TestServer(std::size_t num_threads = 1, bool accept_binary = true,
                      std::size_t max_frame_bytes = server::kDefaultMaxFrameBytes,
                      std::size_t max_connections = 1024) {
    ConsensusServerOptions options;
    options.sessions.num_threads = num_threads;
    options.accept_binary = accept_binary;
    consensus = std::make_unique<ConsensusServer>(options);
    TcpTransportOptions tcp_options;
    tcp_options.max_frame_bytes = max_frame_bytes;
    tcp_options.max_connections = max_connections;
    transport = std::make_unique<TcpTransport>(*consensus, tcp_options);
    const Status started = transport->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  TcpFrameClient Connect() {
    auto client = TcpFrameClient::Connect("127.0.0.1", transport->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  std::unique_ptr<ConsensusServer> consensus;
  std::unique_ptr<TcpTransport> transport;
};

std::string OpenRequestLine(const std::string& session,
                            std::size_t num_items = 4) {
  return StrFormat(
      R"({"op":"open","session":"%s","config":{"method":"MV",)"
      R"("num_items":%zu,"num_workers":16,"num_labels":4}})",
      session.c_str(), num_items);
}

/// Parses a JSON frame and checks `"ok"`.
JsonValue MustParseJson(const Frame& frame, bool expect_ok) {
  EXPECT_EQ(frame.kind, FrameKind::kJson);
  auto parsed = JsonValue::Parse(frame.payload);
  EXPECT_TRUE(parsed.ok()) << frame.payload;
  const JsonValue* ok = parsed.value().Find("ok");
  EXPECT_NE(ok, nullptr) << frame.payload;
  if (ok != nullptr) {
    EXPECT_EQ(ok->bool_value(), expect_ok) << frame.payload;
  }
  return parsed.value();
}

/// Decodes a binary frame's response body.
BinaryResponse MustParseBinary(const Frame& frame) {
  EXPECT_EQ(frame.kind, FrameKind::kBinary);
  auto decoded = server::DecodeBinaryResponse(frame.payload);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return decoded.ok() ? decoded.value() : BinaryResponse{};
}

Result<Frame> MustRoundtrip(TcpFrameClient& client, FrameKind kind,
                            std::string_view payload) {
  auto reply = client.Roundtrip(kind, payload);
  EXPECT_TRUE(reply.ok()) << reply.status().ToString();
  return reply;
}

const std::vector<Answer> kAnswers = {{0, 0, LabelSet{1}},
                                      {0, 1, LabelSet{1, 2}},
                                      {1, 2, LabelSet{3}},
                                      {2, 3, LabelSet{0}}};

TEST(TcpTransportTest, JsonLifecycleOverRealSocket) {
  TestServer server;
  TcpFrameClient client = server.Connect();

  MustParseJson(
      MustRoundtrip(client, FrameKind::kJson, OpenRequestLine("tcp1")).value(),
      true);
  const JsonValue ack = MustParseJson(
      MustRoundtrip(client, FrameKind::kJson,
                    server::MakeObserveRequest("tcp1", kAnswers))
          .value(),
      true);
  EXPECT_EQ(ack.Find("answers_seen")->number_value(), 4.0);

  const JsonValue snapshot = MustParseJson(
      MustRoundtrip(client, FrameKind::kJson,
                    R"({"op":"snapshot","session":"tcp1"})")
          .value(),
      true);
  ASSERT_NE(snapshot.Find("predictions"), nullptr);
  EXPECT_EQ(snapshot.Find("predictions")->array().size(), 4u);

  MustParseJson(MustRoundtrip(client, FrameKind::kJson,
                              R"({"op":"finalize","session":"tcp1"})")
                    .value(),
                true);
  MustParseJson(MustRoundtrip(client, FrameKind::kJson,
                              R"({"op":"close","session":"tcp1"})")
                    .value(),
                true);
  EXPECT_EQ(server.consensus->sessions().num_sessions(), 0u);
  client.Close();
}

TEST(TcpTransportTest, BinaryAndJsonTransportsProduceIdenticalSnapshots) {
  TestServer server;
  TcpFrameClient json_client = server.Connect();
  TcpFrameClient binary_client = server.Connect();

  // Two sessions, same config, same stream — one driven per transport
  // (open is JSON on both connections; the hot ops differ).
  MustParseJson(
      MustRoundtrip(json_client, FrameKind::kJson, OpenRequestLine("via-json"))
          .value(),
      true);
  MustParseJson(MustRoundtrip(binary_client, FrameKind::kJson,
                              OpenRequestLine("via-binary"))
                    .value(),
      true);

  const JsonValue json_ack = MustParseJson(
      MustRoundtrip(json_client, FrameKind::kJson,
                    server::MakeObserveRequest("via-json", kAnswers))
          .value(),
      true);
  const BinaryResponse binary_ack = MustParseBinary(
      MustRoundtrip(binary_client, FrameKind::kBinary,
                    server::EncodeObserveRequest("via-binary", kAnswers))
          .value());
  EXPECT_EQ(json_ack.Find("answers_seen")->number_value(),
            static_cast<double>(binary_ack.ack.answers_seen));

  const JsonValue json_snapshot = MustParseJson(
      MustRoundtrip(json_client, FrameKind::kJson,
                    R"({"op":"finalize","session":"via-json"})")
          .value(),
      true);
  const BinaryResponse binary_snapshot = MustParseBinary(
      MustRoundtrip(binary_client, FrameKind::kBinary,
                    server::EncodeFinalizeRequest("via-binary", true))
          .value());

  // The acceptance bar: identical predictions for the same request stream.
  const auto& json_rows = json_snapshot.Find("predictions")->array();
  ASSERT_EQ(json_rows.size(), binary_snapshot.predictions.size());
  for (std::size_t i = 0; i < json_rows.size(); ++i) {
    const LabelSet& binary_labels = binary_snapshot.predictions[i];
    ASSERT_EQ(json_rows[i].array().size(), binary_labels.size()) << "item " << i;
    std::size_t j = 0;
    for (LabelId label : binary_labels) {
      EXPECT_EQ(json_rows[i].array()[j++].number_value(),
                static_cast<double>(label))
          << "item " << i;
    }
  }
  EXPECT_EQ(json_snapshot.Find("method")->string_value(), binary_snapshot.method);
  EXPECT_TRUE(binary_snapshot.finalized);
}

TEST(TcpTransportTest, PipelinedBatchGetsOrderedReplies) {
  TestServer server;
  TcpFrameClient client = server.Connect();

  // One write carries the whole session: open + observe + 8 polls +
  // finalize. Replies must come back one per request, in order.
  std::string batch;
  server::AppendFrame(batch, FrameKind::kJson, OpenRequestLine("pipe"));
  server::AppendFrame(batch, FrameKind::kBinary,
                      server::EncodeObserveRequest("pipe", kAnswers));
  for (int i = 0; i < 8; ++i) {
    server::AppendFrame(batch, FrameKind::kBinary,
                        server::EncodeSnapshotRequest("pipe", /*refresh=*/i == 0,
                                                      /*include_predictions=*/false));
  }
  server::AppendFrame(batch, FrameKind::kBinary,
                      server::EncodeFinalizeRequest("pipe", true));
  ASSERT_TRUE(client.SendRaw(batch).ok());

  MustParseJson(client.ReadFrame().value(), true);  // open
  const BinaryResponse ack = MustParseBinary(client.ReadFrame().value());
  EXPECT_EQ(ack.ack.answers_seen, 4u);
  for (int i = 0; i < 8; ++i) {
    const BinaryResponse poll = MustParseBinary(client.ReadFrame().value());
    EXPECT_TRUE(poll.ok);
    EXPECT_FALSE(poll.has_predictions);
    EXPECT_EQ(poll.answers_seen, 4u);
  }
  const BinaryResponse final_snapshot = MustParseBinary(client.ReadFrame().value());
  EXPECT_TRUE(final_snapshot.finalized);
}

TEST(TcpTransportTest, MalformedPayloadGetsErrorReplyAndConnectionSurvives) {
  TestServer server;
  TcpFrameClient client = server.Connect();

  // Broken JSON payload in a well-formed frame.
  const JsonValue error = MustParseJson(
      MustRoundtrip(client, FrameKind::kJson, "this is not json").value(), false);
  EXPECT_EQ(error.Find("code")->string_value(), "InvalidArgument");

  // Garbage binary payload in a well-formed frame.
  const BinaryResponse binary_error = MustParseBinary(
      MustRoundtrip(client, FrameKind::kBinary, "\xee\xee\xee").value());
  EXPECT_FALSE(binary_error.ok);
  EXPECT_EQ(binary_error.error.code(), StatusCode::kInvalidArgument);

  // Unknown frame kind: recoverable framing error, reply falls back to JSON.
  std::string bad_kind = server::EncodeFrame({FrameKind::kJson, "{}"});
  bad_kind[4] = '\x07';
  ASSERT_TRUE(client.SendRaw(bad_kind).ok());
  MustParseJson(client.ReadFrame().value(), false);

  // The connection still works.
  MustParseJson(
      MustRoundtrip(client, FrameKind::kJson, OpenRequestLine("still-alive"))
          .value(),
      true);
}

TEST(TcpTransportTest, OversizedFrameGetsErrorReplyAndConnectionSurvives) {
  TestServer server(/*num_threads=*/1, /*accept_binary=*/true,
                    /*max_frame_bytes=*/256);
  TcpFrameClient client = server.Connect();

  const Frame reply =
      MustRoundtrip(client, FrameKind::kJson, std::string(4096, ' ')).value();
  const JsonValue error = MustParseJson(reply, false);
  EXPECT_EQ(error.Find("code")->string_value(), "InvalidArgument");

  MustParseJson(
      MustRoundtrip(client, FrameKind::kJson, OpenRequestLine("after-big"))
          .value(),
      true);
}

TEST(TcpTransportTest, JsonOnlyModeRejectsBinaryFrames) {
  TestServer server(/*num_threads=*/1, /*accept_binary=*/false);
  TcpFrameClient client = server.Connect();

  MustParseJson(
      MustRoundtrip(client, FrameKind::kJson, OpenRequestLine("dbg")).value(),
      true);
  const BinaryResponse rejected = MustParseBinary(
      MustRoundtrip(client, FrameKind::kBinary,
                    server::EncodeObserveRequest("dbg", kAnswers))
          .value());
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.error.code(), StatusCode::kFailedPrecondition);

  // The same op as a JSON frame still works.
  MustParseJson(MustRoundtrip(client, FrameKind::kJson,
                              server::MakeObserveRequest("dbg", kAnswers))
                    .value(),
                true);
}

TEST(TcpTransportTest, ManyConcurrentClientsShareOneServer) {
  // The TSan centerpiece: concurrent connections, mixed transports, all
  // sessions' sweeps on one shared 2-thread pool.
  TestServer server(/*num_threads=*/2);
  constexpr std::size_t kClients = 8;
  constexpr std::size_t kBatches = 3;

  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&server, c] {
      const bool binary = c % 2 == 0;
      const std::string session = StrFormat("conc-%zu", c);
      TcpFrameClient client = server.Connect();
      MustParseJson(
          MustRoundtrip(client, FrameKind::kJson, OpenRequestLine(session))
              .value(),
          true);
      for (std::size_t b = 0; b < kBatches; ++b) {
        // Distinct (worker, item) per batch so observes never collide.
        const std::vector<Answer> answers = {
            {static_cast<ItemId>(b), static_cast<WorkerId>(2 * c),
             LabelSet{static_cast<LabelId>(c % 4)}},
            {static_cast<ItemId>(b), static_cast<WorkerId>(2 * c + 1),
             LabelSet{static_cast<LabelId>((c + 1) % 4)}}};
        if (binary) {
          const BinaryResponse ack = MustParseBinary(
              MustRoundtrip(client, FrameKind::kBinary,
                            server::EncodeObserveRequest(session, answers))
                  .value());
          EXPECT_TRUE(ack.ok);
          const BinaryResponse snap = MustParseBinary(
              MustRoundtrip(client, FrameKind::kBinary,
                            server::EncodeSnapshotRequest(session, true, true))
                  .value());
          EXPECT_TRUE(snap.ok);
        } else {
          MustParseJson(
              MustRoundtrip(client, FrameKind::kJson,
                            server::MakeObserveRequest(session, answers))
                  .value(),
              true);
          MustParseJson(
              MustRoundtrip(
                  client, FrameKind::kJson,
                  StrFormat(R"({"op":"snapshot","session":"%s"})",
                            session.c_str()))
                  .value(),
              true);
        }
      }
      MustParseJson(
          MustRoundtrip(
              client, FrameKind::kJson,
              StrFormat(R"({"op":"close","session":"%s"})", session.c_str()))
              .value(),
          true);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(server.consensus->sessions().num_sessions(), 0u);
  const TcpTransportStats stats = server.transport->stats();
  EXPECT_EQ(stats.connections_accepted, kClients);
  EXPECT_EQ(stats.framing_errors, 0u);
  EXPECT_EQ(stats.frames_in, stats.frames_out);
}

TEST(TcpTransportTest, GracefulShutdownDrainsOpenConnections) {
  TestServer server;
  TcpFrameClient client = server.Connect();
  MustParseJson(
      MustRoundtrip(client, FrameKind::kJson, OpenRequestLine("drain")).value(),
      true);
  EXPECT_EQ(server.transport->num_connections(), 1u);

  server.transport->Shutdown();
  EXPECT_EQ(server.transport->num_connections(), 0u);

  // The socket is gone; the next exchange fails instead of hanging.
  auto reply = client.Roundtrip(FrameKind::kJson, R"({"op":"list"})");
  EXPECT_FALSE(reply.ok());

  // Shutdown is idempotent, and sessions outlive their connections.
  server.transport->Shutdown();
  EXPECT_EQ(server.consensus->sessions().num_sessions(), 1u);
}

TEST(TcpTransportTest, UnixSocketServesSameProtocol) {
  ConsensusServerOptions options;
  ConsensusServer consensus(options);
  TcpTransportOptions tcp_options;
  tcp_options.unix_path =
      StrFormat("/tmp/cpa_unix_test_%d.sock", static_cast<int>(::getpid()));
  TcpTransport transport(consensus, tcp_options);
  const Status started = transport.Start();
  ASSERT_TRUE(started.ok()) << started.ToString();
  EXPECT_EQ(transport.port(), 0);  // no TCP port in unix mode

  auto connected = TcpFrameClient::ConnectUnix(tcp_options.unix_path);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  TcpFrameClient client = std::move(connected).value();

  // The full mixed-encoding lifecycle, identical to the TCP path.
  MustParseJson(
      MustRoundtrip(client, FrameKind::kJson, OpenRequestLine("unix1")).value(),
      true);
  const BinaryResponse ack = MustParseBinary(
      MustRoundtrip(client, FrameKind::kBinary,
                    server::EncodeObserveRequest("unix1", kAnswers))
          .value());
  EXPECT_EQ(ack.ack.answers_seen, 4u);
  const BinaryResponse final_snapshot = MustParseBinary(
      MustRoundtrip(client, FrameKind::kBinary,
                    server::EncodeFinalizeRequest("unix1", true))
          .value());
  EXPECT_TRUE(final_snapshot.finalized);
  EXPECT_EQ(final_snapshot.predictions.size(), 4u);

  client.Close();
  transport.Shutdown();
  // Shutdown unlinks the socket file.
  EXPECT_NE(::access(tcp_options.unix_path.c_str(), F_OK), 0);
}

TEST(TcpTransportTest, UnixSocketRejectsOverlongPath) {
  ConsensusServerOptions options;
  ConsensusServer consensus(options);
  TcpTransportOptions tcp_options;
  tcp_options.unix_path = "/tmp/" + std::string(200, 'x') + ".sock";
  TcpTransport transport(consensus, tcp_options);
  const Status started = transport.Start();
  EXPECT_EQ(started.code(), StatusCode::kInvalidArgument);
}

TEST(TcpTransportTest, ConnectionLimitRejectsExtraClients) {
  TestServer server(/*num_threads=*/1, /*accept_binary=*/true,
                    server::kDefaultMaxFrameBytes, /*max_connections=*/1);
  TcpFrameClient first = server.Connect();
  // Occupy the only slot with a live exchange.
  MustParseJson(
      MustRoundtrip(first, FrameKind::kJson, OpenRequestLine("only")).value(),
      true);

  TcpFrameClient second = server.Connect();
  auto reply = second.ReadFrame();  // server sends the error unprompted
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  const JsonValue error = MustParseJson(reply.value(), false);
  EXPECT_EQ(error.Find("code")->string_value(), "FailedPrecondition");
}

TEST(TcpTransportTest, NegotiatesSequencing) {
  TestServer server;
  TcpFrameClient client = server.Connect();
  auto negotiated = client.NegotiateSequencing();
  ASSERT_TRUE(negotiated.ok()) << negotiated.status().ToString();
  EXPECT_TRUE(negotiated.value());
  // Legacy traffic on the same connection stays untagged.
  const Frame reply =
      MustRoundtrip(client, FrameKind::kJson, R"({"op":"methods"})").value();
  EXPECT_FALSE(reply.sequenced);
  EXPECT_EQ(reply.sequence, 0);
}

/// What the reply to one request of a sequenced burst must show.
struct BurstExpectation {
  std::size_t session = 0;
  bool is_observe = false;
  std::size_t batches_seen = 0;  ///< observes: per-session serial counter
  bool binary = false;
};

TEST(TcpTransportTest, SequencedMixedBurstRepliesInRequestOrder) {
  // Several sessions' observes and cached polls, shuffled into one
  // pipelined burst of sequenced JSON and binary frames on one
  // connection. Every reply must carry its request's id, in request
  // order, and each session must end byte-identical to a serial run.
  constexpr std::size_t kSessions = 3;
  constexpr std::size_t kBatches = 6;
  Rng rng(20180417);
  // Distinct (item, worker) per (session, batch) so observes never
  // collide; the per-session stream is the same for both runs.
  const auto batch_answers = [](std::size_t session, std::size_t batch) {
    return std::vector<Answer>{
        {static_cast<ItemId>(batch), static_cast<WorkerId>(2 * session),
         LabelSet{static_cast<LabelId>(session % 4)}},
        {static_cast<ItemId>(batch), static_cast<WorkerId>(2 * session + 1),
         LabelSet{static_cast<LabelId>((session + batch) % 4)}}};
  };
  const auto session_name = [](std::size_t session) {
    return StrFormat("burst-%zu", session);
  };
  const auto open_sessions = [&](TcpFrameClient& client) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      MustParseJson(MustRoundtrip(client, FrameKind::kJson,
                                  OpenRequestLine(session_name(s), 8))
                        .value(),
                    true);
    }
  };
  const auto finalize_payload = [&](TcpFrameClient& client, std::size_t s) {
    const Frame reply =
        MustRoundtrip(client, FrameKind::kBinary,
                      server::EncodeFinalizeRequest(session_name(s), true))
            .value();
    EXPECT_TRUE(MustParseBinary(reply).finalized);
    return reply.payload;
  };

  // Serial reference: the same streams, one blocking roundtrip at a
  // time, on a fresh server.
  std::vector<std::string> reference(kSessions);
  {
    TestServer server;
    TcpFrameClient client = server.Connect();
    open_sessions(client);
    for (std::size_t s = 0; s < kSessions; ++s) {
      for (std::size_t b = 0; b < kBatches; ++b) {
        MustParseBinary(
            MustRoundtrip(client, FrameKind::kBinary,
                          server::EncodeObserveRequest(session_name(s),
                                                       batch_answers(s, b)))
                .value());
      }
      reference[s] = finalize_payload(client, s);
    }
  }

  TestServer server(/*num_threads=*/2);
  TcpFrameClient client = server.Connect();
  open_sessions(client);
  std::string burst;
  std::vector<BurstExpectation> expected;
  std::vector<std::size_t> sent(kSessions, 0);
  const auto next_sequence = [&] {
    return static_cast<std::uint16_t>(expected.size() + 1);
  };
  while (true) {
    // A random session that still has observes to send; each session's
    // own observes stay in stream order.
    std::vector<std::size_t> pending;
    for (std::size_t s = 0; s < kSessions; ++s) {
      if (sent[s] < kBatches) pending.push_back(s);
    }
    if (pending.empty()) break;
    BurstExpectation observe;
    observe.session = pending[rng.NextBounded(pending.size())];
    observe.is_observe = true;
    observe.batches_seen = ++sent[observe.session];
    observe.binary = rng.NextBernoulli(0.5);
    const std::vector<Answer> answers =
        batch_answers(observe.session, observe.batches_seen - 1);
    const std::string name = session_name(observe.session);
    server::AppendSequencedFrame(
        burst, observe.binary ? FrameKind::kBinary : FrameKind::kJson,
        observe.binary ? server::EncodeObserveRequest(name, answers)
                       : server::MakeObserveRequest(name, answers),
        next_sequence());
    expected.push_back(observe);
    if (rng.NextBernoulli(0.5)) {
      BurstExpectation poll;
      poll.session = rng.NextBounded(kSessions);
      poll.binary = rng.NextBernoulli(0.5);
      const std::string polled = session_name(poll.session);
      server::AppendSequencedFrame(
          burst, poll.binary ? FrameKind::kBinary : FrameKind::kJson,
          poll.binary
              ? server::EncodeSnapshotRequest(polled, /*refresh=*/false,
                                              /*include_predictions=*/false)
              : StrFormat("{\"op\":\"snapshot\",\"session\":\"%s\","
                          "\"refresh\":false,\"predictions\":false}",
                          polled.c_str()),
          next_sequence());
      expected.push_back(poll);
    }
  }
  ASSERT_TRUE(client.SendRaw(burst).ok());

  for (std::size_t k = 0; k < expected.size(); ++k) {
    auto read = client.ReadFrame();
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    const Frame& reply = read.value();
    ASSERT_TRUE(reply.sequenced);
    ASSERT_EQ(reply.sequence, k + 1) << "reply out of request order";
    const BurstExpectation& expectation = expected[k];
    if (expectation.binary) {
      const BinaryResponse response = MustParseBinary(reply);
      EXPECT_TRUE(response.ok);
      if (expectation.is_observe) {
        EXPECT_EQ(response.ack.batches_seen, expectation.batches_seen)
            << "session " << expectation.session;
      }
    } else {
      const JsonValue response = MustParseJson(reply, true);
      if (expectation.is_observe) {
        EXPECT_EQ(response.Find("batches_seen")->number_value(),
                  static_cast<double>(expectation.batches_seen))
            << "session " << expectation.session;
      }
    }
  }

  for (std::size_t s = 0; s < kSessions; ++s) {
    EXPECT_EQ(finalize_payload(client, s), reference[s]) << "session " << s;
  }
}

TEST(TcpTransportTest, SequencedFramingErrorRepliesWithTag) {
  TestServer server(/*num_threads=*/1, /*accept_binary=*/true,
                    /*max_frame_bytes=*/256);
  TcpFrameClient client = server.Connect();

  std::string burst;
  server::AppendSequencedFrame(burst, FrameKind::kJson,
                               std::string(4096, ' '), 7);
  ASSERT_TRUE(client.SendRaw(burst).ok());
  auto reply = client.ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply.value().sequenced);
  EXPECT_EQ(reply.value().sequence, 7);
  MustParseJson(reply.value(), false);

  // The connection survives the rejection.
  MustParseJson(
      MustRoundtrip(client, FrameKind::kJson, OpenRequestLine("alive")).value(),
      true);
}

TEST(TcpTransportTest, MidPipelineDropKeepsSessionAndServerAlive) {
  TestServer server;
  {
    TcpFrameClient client = server.Connect();
    MustParseJson(
        MustRoundtrip(client, FrameKind::kJson, OpenRequestLine("drop"))
            .value(),
        true);
    // A full pipelined burst, then vanish without reading a byte.
    std::string burst;
    std::uint16_t seq = 1;
    server::AppendSequencedFrame(
        burst, FrameKind::kBinary,
        server::EncodeObserveRequest("drop", kAnswers), seq++);
    for (int k = 0; k < 8; ++k) {
      server::AppendSequencedFrame(
          burst, FrameKind::kBinary,
          server::EncodeSnapshotRequest("drop", /*refresh=*/k == 0,
                                        /*include_predictions=*/true),
          seq++);
    }
    ASSERT_TRUE(client.SendRaw(burst).ok());
    client.Close();
  }

  // The handler finishes the burst, fails to write, and ends; the
  // session — and the transport — survive.
  for (int i = 0; i < 500 && server.transport->num_connections() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.transport->num_connections(), 0u);
  EXPECT_EQ(server.consensus->sessions().num_sessions(), 1u);

  // A new connection picks the session up where the burst left it.
  TcpFrameClient client = server.Connect();
  const BinaryResponse finalized = MustParseBinary(
      MustRoundtrip(client, FrameKind::kBinary,
                    server::EncodeFinalizeRequest("drop", true))
          .value());
  EXPECT_TRUE(finalized.finalized);
  EXPECT_EQ(finalized.answers_seen, kAnswers.size());
  MustParseJson(MustRoundtrip(client, FrameKind::kJson,
                              R"({"op":"close","session":"drop"})")
                    .value(),
                true);
}

/// Opens a raw connection to `port`, sends one `methods` request and
/// waits at most `timeout_seconds` for an ok reply. Unlike
/// `TcpFrameClient`, it gives up instead of blocking forever on a server
/// that never accepts.
bool ServedWithin(std::uint16_t port, int timeout_seconds) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  timeval timeout{};
  timeout.tv_sec = timeout_seconds;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  const std::string request =
      server::EncodeFrame({FrameKind::kJson, R"({"op":"methods"})"});
  bool served = false;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) == 0 &&
      ::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
          static_cast<ssize_t>(request.size())) {
    server::FrameDecoder decoder;
    char buffer[4096];
    while (true) {
      const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
      if (n <= 0) break;  // EOF, error or timeout
      decoder.Append(std::string_view(buffer, static_cast<std::size_t>(n)));
      if (auto item = decoder.Next()) {
        served = item->error.ok() &&
                 item->frame.payload.find(R"("ok":true)") != std::string::npos;
        break;
      }
    }
  }
  ::close(fd);
  return served;
}

TEST(TcpTransportTest, AcceptLoopSurvivesDescriptorExhaustion) {
  // Run this process out of file descriptors while a client waits in
  // the listen backlog: accept(2) fails with EMFILE. Once descriptors
  // free up again the listener must go on serving, not stay deaf.
  TestServer server;
  rlimit original{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &original), 0);

  // Made before the squeeze: connecting it once no descriptor is left
  // queues a connection that accept(2) cannot take.
  const int spare = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(spare, 0);
  const int lowest_free = ::open("/dev/null", O_RDONLY);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);
  rlimit squeezed = original;
  squeezed.rlim_cur = static_cast<rlim_t>(lowest_free) + 16;
  ASSERT_LE(squeezed.rlim_cur, original.rlim_max);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &squeezed), 0);

  // Clients and the server share this process's descriptor table, so
  // opening clients until socket(2) fails exhausts it for both.
  std::vector<TcpFrameClient> clients;
  for (int i = 0; i < 64; ++i) {
    auto client = TcpFrameClient::Connect("127.0.0.1", server.transport->port());
    if (!client.ok()) break;
    clients.push_back(std::move(client).value());
  }
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(server.transport->port());
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  const int connected = ::connect(
      spare, reinterpret_cast<const sockaddr*>(&address), sizeof(address));
  // Give the accept loop time to hit EMFILE on the queued connection.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const std::size_t opened = clients.size();
  clients.clear();
  ::close(spare);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &original), 0);
  EXPECT_EQ(connected, 0);
  EXPECT_LT(opened, 64u) << "the descriptor limit was never reached";

  EXPECT_TRUE(ServedWithin(server.transport->port(), /*timeout_seconds=*/5))
      << "listener stopped accepting after running out of descriptors";
}

}  // namespace
}  // namespace cpa
