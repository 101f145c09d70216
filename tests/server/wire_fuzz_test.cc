/// Seeded mutation fuzzing of the decoders that read socket bytes: the
/// frame layer (`server::FrameDecoder`) and the binary codec's request
/// and response decoders. Every case starts from a valid encoding and
/// applies one of four mutations — bit flips, truncations, lying counts
/// (a length or count field overwritten with a value the body cannot
/// back) and splices of two inputs. Each case must end in a decoded
/// value or a clean error: no crash (the sanitizer builds run this suite
/// too), and no allocation sized by a field before that field was
/// checked against the bytes actually present. The second property is
/// watched by a counting global `operator new`: while a decode runs, no
/// single allocation may exceed a small multiple of the input size.
///
/// Deterministic: fixed seeds, fixed case counts, no clock.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "server/binary_codec.h"
#include "server/framing.h"
#include "util/endian.h"
#include "util/rng.h"

namespace {

std::atomic<bool> g_tracking{false};
std::atomic<std::size_t> g_largest_allocation{0};

void NoteAllocation(std::size_t size) {
  if (!g_tracking.load(std::memory_order_relaxed)) return;
  std::size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
  while (size > seen && !g_largest_allocation.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
}

void* Allocate(std::size_t size) {
  NoteAllocation(size);
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

// Replaced for the whole test binary; everything still lands in malloc.
void* operator new(std::size_t size) {
  if (void* p = Allocate(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace cpa::server {
namespace {

/// A decode of n input bytes may allocate at most this many bytes in one
/// block per input byte (plus `kAllocationSlack` for messages and small
/// fixed buffers). Decoded containers legitimately outgrow their wire
/// form — a 2-byte empty label set becomes a 24-byte `LabelSet` — but a
/// count trusted before its bounds check asks for far more.
constexpr std::size_t kAllocationFactor = 16;
constexpr std::size_t kAllocationSlack = 256;

/// Largest single allocation made while `decode` runs.
template <typename Fn>
std::size_t LargestAllocationDuring(Fn&& decode) {
  g_largest_allocation.store(0, std::memory_order_relaxed);
  g_tracking.store(true, std::memory_order_relaxed);
  decode();
  g_tracking.store(false, std::memory_order_relaxed);
  return g_largest_allocation.load(std::memory_order_relaxed);
}

std::size_t AllocationBound(std::size_t input_bytes) {
  return kAllocationFactor * input_bytes + kAllocationSlack;
}

/// A valid input plus the offsets of its length/count fields (each with
/// its width in bytes), which the lying-count mutation targets.
struct Seed {
  std::string bytes;
  std::vector<std::pair<std::size_t, std::size_t>> counts;
};

/// Overwrites `width` bytes at `offset` with `value` (little-endian).
void Poke(std::string& bytes, std::size_t offset, std::size_t width,
          std::uint64_t value) {
  for (std::size_t b = 0; b < width && offset + b < bytes.size(); ++b) {
    bytes[offset + b] = static_cast<char>((value >> (8 * b)) & 0xFF);
  }
}

/// Values a lying count field is set to.
constexpr std::uint64_t kLies[] = {0, 1, 0x7F, 0xFF, 0xFFFF, 0x10000,
                                   0x7FFFFFFF, 0xFFFFFFFF};

/// One mutation of one seed, chosen by `rng`.
std::string Mutate(const std::vector<Seed>& seeds, const Seed& seed, Rng& rng) {
  std::string bytes = seed.bytes;
  switch (rng.NextBounded(4)) {
    case 0: {  // bit flips
      const std::uint64_t flips = 1 + rng.NextBounded(4);
      for (std::uint64_t f = 0; f < flips && !bytes.empty(); ++f) {
        const std::size_t at = rng.NextBounded(bytes.size());
        bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.NextBounded(8)));
      }
      break;
    }
    case 1:  // truncation
      bytes.resize(rng.NextBounded(bytes.size() + 1));
      break;
    case 2: {  // lying count: a known field, or any u16/u32 position
      const std::uint64_t lie = kLies[rng.NextBounded(std::size(kLies))];
      if (!seed.counts.empty() && rng.NextBernoulli(0.75)) {
        const auto& [offset, width] =
            seed.counts[rng.NextBounded(seed.counts.size())];
        Poke(bytes, offset, width, lie);
      } else if (!bytes.empty()) {
        Poke(bytes, rng.NextBounded(bytes.size()), rng.NextBernoulli(0.5) ? 2 : 4,
             lie);
      }
      break;
    }
    default: {  // splice: a prefix of this seed + a suffix of another
      const std::string& other = seeds[rng.NextBounded(seeds.size())].bytes;
      const std::size_t cut = rng.NextBounded(bytes.size() + 1);
      const std::size_t from = rng.NextBounded(other.size() + 1);
      bytes = bytes.substr(0, cut) + other.substr(from);
      break;
    }
  }
  return bytes;
}

const std::vector<Answer> kAnswers = {{0, 0, LabelSet{1}},
                                      {3, 1, LabelSet{1, 2, 5}},
                                      {1, 2, LabelSet{}},
                                      {2, 3, LabelSet{0, 7}}};

/// Offsets of `u16 session length` (always at 1) and, for observe, the
/// answer count and the first answer's label count.
std::vector<Seed> RequestSeeds() {
  std::vector<Seed> seeds;
  const auto observe = [&](const std::string& session,
                           const std::vector<Answer>& answers) {
    const std::size_t count_at = 3 + session.size();
    seeds.push_back({EncodeObserveRequest(session, answers),
                     {{1, 2}, {count_at, 4}, {count_at + 4 + 8, 2}}});
  };
  observe("session-1", kAnswers);
  observe("s", {kAnswers[1]});
  observe("empty", {});
  seeds.push_back({EncodeSnapshotRequest("snap", true, true), {{1, 2}}});
  seeds.push_back({EncodeSnapshotRequest("poll", false, false), {{1, 2}}});
  seeds.push_back({EncodeFinalizeRequest("final", true), {{1, 2}}});
  seeds.push_back({EncodeCheckpointRequest("ckpt"), {{1, 2}}});
  const std::string blob(48, '\x5a');
  seeds.push_back({EncodeRestoreRequest("back", blob), {{1, 2}, {7, 4}}});
  seeds.push_back({EncodeRestoreRequest("", blob), {{1, 2}, {3, 4}}});
  return seeds;
}

/// Binary responses, hand-encoded from the layout in binary_codec.h so
/// the snapshot case carries a prediction list to lie about.
std::vector<Seed> ResponseSeeds() {
  std::vector<Seed> seeds;
  seeds.push_back({EncodeBinaryError("observe", "ghost",
                                     Status::NotFound("no session 'ghost'")),
                   {{2, 2}, {4 + 7, 2}, {6 + 7 + 5, 4}}});
  Response ack;
  ack.op = Request::Op::kObserve;
  ack.session = "acked";
  ack.ack.batches_seen = 3;
  ack.ack.answers_seen = 12;
  seeds.push_back({EncodeBinaryResponse(ack), {{1, 2}}});

  std::string snapshot;
  snapshot.push_back('\x82');
  snapshot.push_back('\x02');
  const auto string16 = [&](std::string_view text) {
    AppendLittleEndian<std::uint16_t>(snapshot,
                                      static_cast<std::uint16_t>(text.size()));
    snapshot.append(text);
  };
  string16("snap");
  string16("CPA-SVI");
  for (std::uint64_t counter : {4u, 40u, 9u}) {
    AppendLittleEndian<std::uint64_t>(snapshot, counter);
  }
  AppendLittleEndianDouble(snapshot, 0.25);
  snapshot.push_back('\x00');  // finalized
  snapshot.push_back('\x01');  // has_predictions
  const std::size_t items_at = snapshot.size();
  AppendLittleEndian<std::uint32_t>(snapshot, 3);
  for (const LabelSet& labels : {LabelSet{1, 2}, LabelSet{}, LabelSet{6}}) {
    AppendLittleEndian<std::uint16_t>(snapshot,
                                      static_cast<std::uint16_t>(labels.size()));
    for (LabelId label : labels) AppendLittleEndian<std::uint32_t>(snapshot, label);
  }
  seeds.push_back(
      {snapshot, {{2, 2}, {8, 2}, {items_at, 4}, {items_at + 4, 2}}});
  return seeds;
}

/// Fuzzes one decoder over `seeds`: every seed decodes cleanly as is,
/// then `cases` mutations each decode to a value or an error within the
/// allocation bound.
template <typename Decode>
void FuzzDecoder(const std::vector<Seed>& seeds, std::uint64_t seed_value,
                 std::size_t cases, Decode&& decode) {
  for (const Seed& seed : seeds) {
    ASSERT_TRUE(decode(seed.bytes).ok()) << "seed does not decode";
  }
  Rng rng(seed_value);
  std::size_t errors = 0;
  for (std::size_t c = 0; c < cases; ++c) {
    const Seed& seed = seeds[rng.NextBounded(seeds.size())];
    const std::string input = Mutate(seeds, seed, rng);
    Status status;
    const std::size_t largest =
        LargestAllocationDuring([&] { status = decode(input).status(); });
    if (!status.ok()) {
      ++errors;
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << "case " << c << ": " << status.ToString();
    }
    ASSERT_LE(largest, AllocationBound(input.size()))
        << "case " << c << ": a " << input.size()
        << "-byte input made a " << largest << "-byte allocation";
  }
  // The mutations must actually reach the error paths.
  EXPECT_GT(errors, cases / 4);
}

TEST(WireFuzzTest, BinaryRequestDecoderSurvivesMutations) {
  FuzzDecoder(RequestSeeds(), 20180417, 20000,
              [](std::string_view body) { return DecodeBinaryRequest(body); });
}

TEST(WireFuzzTest, BinaryResponseDecoderSurvivesMutations) {
  FuzzDecoder(ResponseSeeds(), 20180418, 20000,
              [](std::string_view body) { return DecodeBinaryResponse(body); });
}

/// A stream of several frames: both kinds, sequenced and not, empty and
/// non-empty bodies, one bigger than the decoder's limit.
Seed FrameStreamSeed(Rng& rng, std::size_t max_frame_bytes) {
  Seed seed;
  const std::size_t frames = 1 + rng.NextBounded(5);
  for (std::size_t f = 0; f < frames; ++f) {
    const FrameKind kind =
        rng.NextBernoulli(0.5) ? FrameKind::kJson : FrameKind::kBinary;
    std::size_t size = rng.NextBounded(64);
    if (rng.NextBounded(8) == 0) size = max_frame_bytes + rng.NextBounded(64);
    std::string payload(size, '\0');
    for (char& c : payload) c = static_cast<char>(rng.NextBounded(256));
    seed.counts.push_back({seed.bytes.size(), 4});      // body length
    seed.counts.push_back({seed.bytes.size() + 4, 1});  // kind
    seed.counts.push_back({seed.bytes.size() + 5, 1});  // flags
    if (rng.NextBernoulli(0.5)) {
      AppendSequencedFrame(seed.bytes, kind, payload,
                           static_cast<std::uint16_t>(rng.NextBounded(65536)));
    } else {
      AppendFrame(seed.bytes, kind, payload);
    }
  }
  return seed;
}

TEST(WireFuzzTest, FrameDecoderSurvivesMutations) {
  constexpr std::size_t kMaxFrameBytes = 256;
  Rng rng(20180419);
  std::vector<Seed> seeds;
  for (int s = 0; s < 32; ++s) seeds.push_back(FrameStreamSeed(rng, kMaxFrameBytes));

  std::size_t errors = 0;
  std::size_t frames = 0;
  for (std::size_t c = 0; c < 20000; ++c) {
    const Seed& seed = seeds[rng.NextBounded(seeds.size())];
    const std::string input = c < seeds.size() ? seeds[c].bytes
                                               : Mutate(seeds, seed, rng);
    std::size_t items = 0;
    std::size_t payload_bytes = 0;
    const std::size_t largest = LargestAllocationDuring([&] {
      FrameDecoder decoder(kMaxFrameBytes);
      // Feed the bytes in random chunks, draining after each, as a
      // connection's reads would.
      std::size_t fed = 0;
      while (fed < input.size()) {
        const std::size_t chunk =
            std::min(input.size() - fed, 1 + rng.NextBounded(48));
        decoder.Append(std::string_view(input).substr(fed, chunk));
        fed += chunk;
        while (auto item = decoder.Next()) {
          ++items;
          if (item->error.ok()) {
            ++frames;
            payload_bytes += item->frame.payload.size();
            EXPECT_LE(item->frame.payload.size(), kMaxFrameBytes);
            EXPECT_TRUE(item->frame.kind == FrameKind::kJson ||
                        item->frame.kind == FrameKind::kBinary);
            EXPECT_EQ(item->frame.sequenced, item->sequenced);
          } else {
            ++errors;
            EXPECT_EQ(item->error.code(), StatusCode::kInvalidArgument);
          }
        }
      }
      EXPECT_LE(decoder.buffered_bytes(), input.size());
    });
    // Every item, good or bad, consumed at least its 8-byte header.
    ASSERT_LE(items * kFrameHeaderBytes + payload_bytes, input.size())
        << "case " << c;
    ASSERT_LE(largest, AllocationBound(input.size()))
        << "case " << c << ": a " << input.size()
        << "-byte stream made a " << largest << "-byte allocation";
  }
  EXPECT_GT(frames, 20000u);
  EXPECT_GT(errors, 2000u);
}

}  // namespace
}  // namespace cpa::server
