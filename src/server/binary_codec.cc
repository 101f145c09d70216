#include "server/binary_codec.h"

#include <cstdint>
#include <utility>

#include "util/endian.h"
#include "util/string_utils.h"

namespace cpa::server {
namespace {

/// Wire message types (first body byte).
enum : std::uint8_t {
  kMsgObserveRequest = kBinaryMsgObserveRequest,
  kMsgSnapshotRequest = kBinaryMsgSnapshotRequest,
  kMsgFinalizeRequest = kBinaryMsgFinalizeRequest,
  kMsgCheckpointRequest = kBinaryMsgCheckpointRequest,
  kMsgRestoreRequest = kBinaryMsgRestoreRequest,
  kMsgObserveAck = 0x81,
  kMsgSnapshotResponse = 0x82,
  kMsgCheckpointResponse = 0x84,
  kMsgRestoreAck = 0x85,
  kMsgError = 0x7F,
};

/// Snapshot/finalize request flag bits.
enum : std::uint8_t {
  kFlagRefresh = 1u << 0,
  kFlagIncludePredictions = 1u << 1,
};

void AppendString16(std::string& out, std::string_view text) {
  AppendLittleEndian<std::uint16_t>(out, static_cast<std::uint16_t>(text.size()));
  out.append(text);
}

/// A bounds-checked sequential reader over a message body.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  template <typename T>
  Result<T> Read() {
    if (bytes_.size() - offset_ < sizeof(T)) return Truncated();
    const T value = ReadLittleEndian<T>(bytes_, offset_);
    offset_ += sizeof(T);
    return value;
  }

  Result<double> ReadDouble() {
    if (bytes_.size() - offset_ < sizeof(double)) return Truncated();
    const double value = ReadLittleEndianDouble(bytes_, offset_);
    offset_ += sizeof(double);
    return value;
  }

  /// u16-length-prefixed string.
  Result<std::string> ReadString16() {
    CPA_ASSIGN_OR_RETURN(std::uint16_t length, Read<std::uint16_t>());
    return ReadBytes(length);
  }

  /// u32-length-prefixed string.
  Result<std::string> ReadString32() {
    CPA_ASSIGN_OR_RETURN(std::uint32_t length, Read<std::uint32_t>());
    return ReadBytes(length);
  }

  Result<LabelSet> ReadLabelSet() {
    CPA_ASSIGN_OR_RETURN(std::uint16_t count, Read<std::uint16_t>());
    // Checked before reserving: a count the body cannot back must not
    // size an allocation.
    if (count > remaining() / sizeof(std::uint32_t)) return Truncated();
    std::vector<LabelId> labels;
    labels.reserve(count);
    for (std::uint16_t i = 0; i < count; ++i) {
      CPA_ASSIGN_OR_RETURN(std::uint32_t label, Read<std::uint32_t>());
      labels.push_back(label);
    }
    return LabelSet::FromUnsorted(std::move(labels));
  }

  /// Decoding must consume the body exactly — trailing bytes mean the
  /// sender and receiver disagree about the layout.
  Status ExpectEnd() const {
    if (offset_ != bytes_.size()) {
      return Status::InvalidArgument(StrFormat(
          "binary message has %zu trailing bytes", bytes_.size() - offset_));
    }
    return Status::OK();
  }

  std::size_t remaining() const { return bytes_.size() - offset_; }

 private:
  Status Truncated() const {
    return Status::InvalidArgument("binary message truncated");
  }

  Result<std::string> ReadBytes(std::size_t length) {
    if (bytes_.size() - offset_ < length) return Truncated();
    std::string value(bytes_.substr(offset_, length));
    offset_ += length;
    return value;
  }

  std::string_view bytes_;
  std::size_t offset_ = 0;
};

void AppendLabelSet(std::string& out, const LabelSet& labels) {
  AppendLittleEndian<std::uint16_t>(out,
                                    static_cast<std::uint16_t>(labels.size()));
  for (LabelId label : labels) AppendLittleEndian<std::uint32_t>(out, label);
}

std::string EncodeSnapshotLikeRequest(std::uint8_t type, std::string_view session,
                                      std::uint8_t flags) {
  std::string out;
  out.push_back(static_cast<char>(type));
  AppendString16(out, session);
  out.push_back(static_cast<char>(flags));
  return out;
}

Result<Request::Op> OpFromWire(std::uint8_t op_byte) {
  switch (op_byte) {
    case kMsgSnapshotRequest: return Request::Op::kSnapshot;
    case kMsgFinalizeRequest: return Request::Op::kFinalize;
    default:
      return Status::InvalidArgument(
          StrFormat("invalid snapshot-response op byte 0x%02x",
                    static_cast<unsigned>(op_byte)));
  }
}

}  // namespace

std::string EncodeObserveRequest(std::string_view session,
                                 std::span<const Answer> answers) {
  std::string out;
  out.push_back(static_cast<char>(kMsgObserveRequest));
  AppendString16(out, session);
  AppendLittleEndian<std::uint32_t>(out,
                                    static_cast<std::uint32_t>(answers.size()));
  for (const Answer& answer : answers) {
    AppendLittleEndian<std::uint32_t>(out, answer.item);
    AppendLittleEndian<std::uint32_t>(out, answer.worker);
    AppendLabelSet(out, answer.labels);
  }
  return out;
}

std::string EncodeSnapshotRequest(std::string_view session, bool refresh,
                                  bool include_predictions) {
  std::uint8_t flags = 0;
  if (refresh) flags |= kFlagRefresh;
  if (include_predictions) flags |= kFlagIncludePredictions;
  return EncodeSnapshotLikeRequest(kMsgSnapshotRequest, session, flags);
}

std::string EncodeFinalizeRequest(std::string_view session,
                                  bool include_predictions) {
  std::uint8_t flags = 0;
  if (include_predictions) flags |= kFlagIncludePredictions;
  return EncodeSnapshotLikeRequest(kMsgFinalizeRequest, session, flags);
}

std::string EncodeCheckpointRequest(std::string_view session) {
  std::string out;
  out.push_back(static_cast<char>(kMsgCheckpointRequest));
  AppendString16(out, session);
  return out;
}

std::string EncodeRestoreRequest(std::string_view session,
                                 std::string_view state) {
  std::string out;
  out.push_back(static_cast<char>(kMsgRestoreRequest));
  AppendString16(out, session);
  AppendLittleEndian<std::uint32_t>(out,
                                    static_cast<std::uint32_t>(state.size()));
  out.append(state);
  return out;
}

Result<Request> DecodeBinaryRequest(std::string_view body) {
  Reader reader(body);
  CPA_ASSIGN_OR_RETURN(std::uint8_t type, reader.Read<std::uint8_t>());
  Request request;
  switch (type) {
    case kMsgObserveRequest: {
      request.op = Request::Op::kObserve;
      CPA_ASSIGN_OR_RETURN(request.session, reader.ReadString16());
      CPA_ASSIGN_OR_RETURN(std::uint32_t count, reader.Read<std::uint32_t>());
      // A count that cannot fit in the remaining bytes (each answer is at
      // least 10 bytes) is rejected before reserving anything.
      if (count > reader.remaining() / 10) {
        return Status::InvalidArgument("binary observe answer count overruns body");
      }
      request.answers.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        Answer answer;
        CPA_ASSIGN_OR_RETURN(std::uint32_t item, reader.Read<std::uint32_t>());
        CPA_ASSIGN_OR_RETURN(std::uint32_t worker, reader.Read<std::uint32_t>());
        answer.item = item;
        answer.worker = worker;
        CPA_ASSIGN_OR_RETURN(answer.labels, reader.ReadLabelSet());
        request.answers.push_back(std::move(answer));
      }
      break;
    }
    case kMsgSnapshotRequest:
    case kMsgFinalizeRequest: {
      request.op = type == kMsgSnapshotRequest ? Request::Op::kSnapshot
                                               : Request::Op::kFinalize;
      CPA_ASSIGN_OR_RETURN(request.session, reader.ReadString16());
      CPA_ASSIGN_OR_RETURN(std::uint8_t flags, reader.Read<std::uint8_t>());
      request.refresh = (flags & kFlagRefresh) != 0;
      request.include_predictions = (flags & kFlagIncludePredictions) != 0;
      break;
    }
    case kMsgCheckpointRequest: {
      request.op = Request::Op::kCheckpoint;
      CPA_ASSIGN_OR_RETURN(request.session, reader.ReadString16());
      break;
    }
    case kMsgRestoreRequest: {
      request.op = Request::Op::kRestore;
      CPA_ASSIGN_OR_RETURN(request.session, reader.ReadString16());
      CPA_ASSIGN_OR_RETURN(request.state, reader.ReadString32());
      break;
    }
    default:
      return Status::InvalidArgument(StrFormat(
          "unknown binary request type 0x%02x (binary carries observe/"
          "snapshot/finalize/checkpoint/restore; use JSON frames for "
          "control ops)",
          static_cast<unsigned>(type)));
  }
  // Restore may omit the session (the id saved in the blob wins); every
  // other binary op addresses an existing session and must name it.
  if (request.session.empty() && request.op != Request::Op::kRestore) {
    return Status::InvalidArgument(
        StrFormat("op '%s' requires a non-empty session",
                  std::string(OpName(request.op)).c_str()));
  }
  CPA_RETURN_NOT_OK(reader.ExpectEnd());
  return request;
}

std::string EncodeBinaryError(std::string_view op, std::string_view session,
                              const Status& status) {
  std::string out;
  out.push_back(static_cast<char>(kMsgError));
  out.push_back(static_cast<char>(status.code()));
  AppendString16(out, op);
  AppendString16(out, session);
  AppendLittleEndian<std::uint32_t>(
      out, static_cast<std::uint32_t>(status.message().size()));
  out.append(status.message());
  return out;
}

std::string EncodeBinaryResponse(const Response& response) {
  std::string out;
  if (!response.status.ok()) {
    return EncodeBinaryError(OpName(response.op), response.session,
                             response.status);
  }
  if (response.op == Request::Op::kObserve) {
    out.push_back(static_cast<char>(kMsgObserveAck));
    AppendString16(out, response.session);
    AppendLittleEndian<std::uint64_t>(out, response.ack.batches_seen);
    AppendLittleEndian<std::uint64_t>(out, response.ack.answers_seen);
    AppendLittleEndian<std::uint64_t>(out, response.ack.delta.changed_items);
    AppendLittleEndian<std::uint64_t>(out, response.ack.delta.snapshot_batches_seen);
    AppendLittleEndian<std::uint64_t>(out, response.ack.delta.snapshot_answers_seen);
    return out;
  }
  if (response.op == Request::Op::kCheckpoint) {
    out.push_back(static_cast<char>(kMsgCheckpointResponse));
    AppendString16(out, response.session);
    AppendLittleEndian<std::uint32_t>(
        out, static_cast<std::uint32_t>(response.state.size()));
    out.append(response.state);
    return out;
  }
  if (response.op == Request::Op::kRestore) {
    out.push_back(static_cast<char>(kMsgRestoreAck));
    AppendString16(out, response.session);
    AppendLittleEndian<std::uint64_t>(out, response.ack.batches_seen);
    AppendLittleEndian<std::uint64_t>(out, response.ack.answers_seen);
    return out;
  }
  // snapshot / finalize — the only other ops a binary request can reach.
  const ConsensusSnapshot& snapshot = *response.snapshot;
  out.push_back(static_cast<char>(kMsgSnapshotResponse));
  out.push_back(static_cast<char>(response.op == Request::Op::kFinalize
                                      ? kMsgFinalizeRequest
                                      : kMsgSnapshotRequest));
  AppendString16(out, response.session);
  AppendString16(out, snapshot.method);
  AppendLittleEndian<std::uint64_t>(out, snapshot.batches_seen);
  AppendLittleEndian<std::uint64_t>(out, snapshot.answers_seen);
  AppendLittleEndian<std::uint64_t>(out, snapshot.fit_stats.iterations);
  AppendLittleEndianDouble(out, snapshot.learning_rate);
  out.push_back(snapshot.finalized ? '\x01' : '\x00');
  out.push_back(response.include_predictions ? '\x01' : '\x00');
  if (response.include_predictions) {
    // The hot path this codec exists for: one flat pass over the label
    // sets, no string formatting, no per-label JSON nodes.
    AppendLittleEndian<std::uint32_t>(
        out, static_cast<std::uint32_t>(snapshot.predictions.size()));
    for (const LabelSet& labels : snapshot.predictions) {
      AppendLabelSet(out, labels);
    }
  }
  return out;
}

Result<BinaryResponse> DecodeBinaryResponse(std::string_view body) {
  Reader reader(body);
  CPA_ASSIGN_OR_RETURN(std::uint8_t type, reader.Read<std::uint8_t>());
  BinaryResponse response;
  switch (type) {
    case kMsgError: {
      response.ok = false;
      CPA_ASSIGN_OR_RETURN(std::uint8_t code, reader.Read<std::uint8_t>());
      CPA_ASSIGN_OR_RETURN(response.error_op, reader.ReadString16());
      CPA_ASSIGN_OR_RETURN(response.session, reader.ReadString16());
      CPA_ASSIGN_OR_RETURN(std::string message, reader.ReadString32());
      if (code > static_cast<std::uint8_t>(StatusCode::kIOError)) {
        return Status::InvalidArgument("binary error reply carries unknown code");
      }
      response.error = Status(static_cast<StatusCode>(code), std::move(message));
      break;
    }
    case kMsgObserveAck: {
      response.op = Request::Op::kObserve;
      CPA_ASSIGN_OR_RETURN(response.session, reader.ReadString16());
      CPA_ASSIGN_OR_RETURN(response.ack.batches_seen, reader.Read<std::uint64_t>());
      CPA_ASSIGN_OR_RETURN(response.ack.answers_seen, reader.Read<std::uint64_t>());
      CPA_ASSIGN_OR_RETURN(response.ack.delta.changed_items,
                           reader.Read<std::uint64_t>());
      CPA_ASSIGN_OR_RETURN(response.ack.delta.snapshot_batches_seen,
                           reader.Read<std::uint64_t>());
      CPA_ASSIGN_OR_RETURN(response.ack.delta.snapshot_answers_seen,
                           reader.Read<std::uint64_t>());
      break;
    }
    case kMsgSnapshotResponse: {
      CPA_ASSIGN_OR_RETURN(std::uint8_t op_byte, reader.Read<std::uint8_t>());
      CPA_ASSIGN_OR_RETURN(response.op, OpFromWire(op_byte));
      CPA_ASSIGN_OR_RETURN(response.session, reader.ReadString16());
      CPA_ASSIGN_OR_RETURN(response.method, reader.ReadString16());
      CPA_ASSIGN_OR_RETURN(response.batches_seen, reader.Read<std::uint64_t>());
      CPA_ASSIGN_OR_RETURN(response.answers_seen, reader.Read<std::uint64_t>());
      CPA_ASSIGN_OR_RETURN(response.iterations, reader.Read<std::uint64_t>());
      CPA_ASSIGN_OR_RETURN(response.learning_rate, reader.ReadDouble());
      CPA_ASSIGN_OR_RETURN(std::uint8_t finalized, reader.Read<std::uint8_t>());
      CPA_ASSIGN_OR_RETURN(std::uint8_t has_predictions,
                           reader.Read<std::uint8_t>());
      response.finalized = finalized != 0;
      response.has_predictions = has_predictions != 0;
      if (response.has_predictions) {
        CPA_ASSIGN_OR_RETURN(std::uint32_t items, reader.Read<std::uint32_t>());
        if (items > reader.remaining() / 2) {
          return Status::InvalidArgument(
              "binary snapshot item count overruns body");
        }
        response.predictions.reserve(items);
        for (std::uint32_t i = 0; i < items; ++i) {
          CPA_ASSIGN_OR_RETURN(LabelSet labels, reader.ReadLabelSet());
          response.predictions.push_back(std::move(labels));
        }
      }
      break;
    }
    case kMsgCheckpointResponse: {
      response.op = Request::Op::kCheckpoint;
      CPA_ASSIGN_OR_RETURN(response.session, reader.ReadString16());
      CPA_ASSIGN_OR_RETURN(response.state, reader.ReadString32());
      break;
    }
    case kMsgRestoreAck: {
      response.op = Request::Op::kRestore;
      CPA_ASSIGN_OR_RETURN(response.session, reader.ReadString16());
      CPA_ASSIGN_OR_RETURN(response.ack.batches_seen, reader.Read<std::uint64_t>());
      CPA_ASSIGN_OR_RETURN(response.ack.answers_seen, reader.Read<std::uint64_t>());
      break;
    }
    default:
      return Status::InvalidArgument(StrFormat(
          "unknown binary response type 0x%02x", static_cast<unsigned>(type)));
  }
  CPA_RETURN_NOT_OK(reader.ExpectEnd());
  return response;
}

}  // namespace cpa::server
