// Wire-format tests: round trips of real monitored-run traces, plus fuzzing
// against truncation and corruption — the server must reject, not crash.

#include <gtest/gtest.h>

#include <cstdint>

#include "src/coop/wire.h"
#include "src/core/gist.h"
#include "src/ir/parser.h"
#include "src/support/rng.h"

namespace gist {
namespace {

// Produces a real trace from a monitored failing run.
RunTrace RealTrace() {
  auto module = ParseModule(R"(
global cell 1 0
func w(1) {
entry:
  r1 = addrof cell
  store r1, r0
  ret
}
func main() {
entry:
  r0 = const 1
  r1 = spawn @w(r0)
  join r1
  r2 = addrof cell
  r3 = load r2
  br r3, ^boom, ^fine
boom:
  r4 = const 0
  r5 = load r4
  ret
fine:
  ret
}
)");
  EXPECT_TRUE(module.ok());
  static std::unique_ptr<Module> keep_alive = std::move(*module);
  Vm probe(*keep_alive, Workload{}, VmOptions{});
  RunResult probe_result = probe.Run();
  EXPECT_FALSE(probe_result.ok());

  GistServer server(*keep_alive);
  server.ReportFailure(probe_result.failure);
  MonitoredRun run = RunMonitored(*keep_alive, server.plan(), Workload{}, GistOptions{}, 42);
  return run.trace;
}

bool TracesEqual(const RunTrace& a, const RunTrace& b) {
  if (a.run_id != b.run_id || a.failed != b.failed ||
      a.failure.type != b.failure.type || a.failure.failing_instr != b.failure.failing_instr ||
      a.failure.failing_thread != b.failure.failing_thread ||
      a.failure.message != b.failure.message || a.failure.stack_trace != b.failure.stack_trace ||
      a.pt_buffers != b.pt_buffers || a.baseline_instructions != b.baseline_instructions) {
    return false;
  }
  if (a.watch_events.size() != b.watch_events.size()) {
    return false;
  }
  for (size_t i = 0; i < a.watch_events.size(); ++i) {
    const WatchEvent& x = a.watch_events[i];
    const WatchEvent& y = b.watch_events[i];
    if (x.seq != y.seq || x.tid != y.tid || x.instr != y.instr || x.addr != y.addr ||
        x.value != y.value || x.is_write != y.is_write) {
      return false;
    }
  }
  return a.activity.pt_bytes == b.activity.pt_bytes &&
         a.activity.pt_toggles == b.activity.pt_toggles &&
         a.activity.watch_traps == b.activity.watch_traps &&
         a.activity.watch_arms == b.activity.watch_arms;
}

TEST(WireTest, RealTraceRoundTrips) {
  const RunTrace original = RealTrace();
  ASSERT_TRUE(original.failed);
  ASSERT_FALSE(original.pt_buffers.empty());

  const std::vector<uint8_t> bytes = SerializeRunTrace(original);
  Result<RunTrace> decoded = DeserializeRunTrace(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message();
  EXPECT_TRUE(TracesEqual(original, *decoded));
}

TEST(WireTest, EmptyTraceRoundTrips) {
  RunTrace empty;
  Result<RunTrace> decoded = DeserializeRunTrace(SerializeRunTrace(empty));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(TracesEqual(empty, *decoded));
}

TEST(WireTest, MatchHashSurvivesTheWire) {
  const RunTrace original = RealTrace();
  Result<RunTrace> decoded = DeserializeRunTrace(SerializeRunTrace(original));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(original.failure.MatchHash(), decoded->failure.MatchHash());
}

TEST(WireTest, BadMagicRejected) {
  std::vector<uint8_t> bytes = SerializeRunTrace(RunTrace{});
  bytes[0] ^= 0xff;
  EXPECT_FALSE(DeserializeRunTrace(bytes).ok());
}

TEST(WireTest, WrongVersionRejected) {
  std::vector<uint8_t> bytes = SerializeRunTrace(RunTrace{});
  bytes[4] = 99;
  Result<RunTrace> decoded = DeserializeRunTrace(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().message().find("version"), std::string::npos);
}

TEST(WireTest, EveryTruncationRejectedCleanly) {
  const std::vector<uint8_t> bytes = SerializeRunTrace(RealTrace());
  // Every strict prefix must decode to an error (never crash, never succeed).
  for (size_t cut = 0; cut < bytes.size(); cut += 7) {
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + static_cast<long>(cut));
    EXPECT_FALSE(DeserializeRunTrace(truncated).ok()) << "prefix length " << cut;
  }
}

TEST(WireTest, TrailingGarbageRejected) {
  std::vector<uint8_t> bytes = SerializeRunTrace(RunTrace{});
  bytes.push_back(0x00);
  Result<RunTrace> decoded = DeserializeRunTrace(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().message().find("trailing"), std::string::npos);
}

TEST(WireTest, RandomCorruptionNeverCrashes) {
  const std::vector<uint8_t> pristine = SerializeRunTrace(RealTrace());
  Rng rng(2024);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> corrupted = pristine;
    const int flips = 1 + static_cast<int>(rng.NextBelow(4));
    for (int i = 0; i < flips; ++i) {
      corrupted[rng.NextBelow(corrupted.size())] ^=
          static_cast<uint8_t>(1u << rng.NextBelow(8));
    }
    // Either a clean error or a decodable (possibly semantically wrong)
    // trace; the decoder itself must never fault.
    Result<RunTrace> decoded = DeserializeRunTrace(corrupted);
    (void)decoded;
  }
  SUCCEED();
}

// Reads the little-endian u64 at `pos`.
uint64_t ReadU64At(const std::vector<uint8_t>& bytes, size_t pos) {
  uint64_t value = 0;
  for (int i = 7; i >= 0; --i) {
    value = (value << 8) | bytes[pos + static_cast<size_t>(i)];
  }
  return value;
}

void WriteU64At(std::vector<uint8_t>* bytes, size_t pos, uint64_t value) {
  for (size_t i = 0; i < 8; ++i) {
    (*bytes)[pos + i] = static_cast<uint8_t>(value >> (8 * i));
  }
}

// A length field is untrusted: one whose sum with the read offset wraps
// around 2^64 must be rejected, not turned into a reversed byte range.
TEST(WireTest, WrappingLengthFieldsRejected) {
  const std::vector<uint8_t> pristine = SerializeRunTrace(RealTrace());
  // magic, version, run id, failed flag, failure type, instr, thread.
  const size_t message_len_at = 4 + 4 + 8 + 1 + 1 + 4 + 4;
  const size_t frames_at = message_len_at + 8 + ReadU64At(pristine, message_len_at);
  const size_t buffers_at = frames_at + 8 + 4 * ReadU64At(pristine, frames_at);
  ASSERT_GT(ReadU64At(pristine, buffers_at), 0u);
  const size_t pt_len_at = buffers_at + 8;
  ASSERT_LE(pt_len_at + 8, pristine.size());

  for (const size_t field_at : {message_len_at, pt_len_at}) {
    // The reader's offset once it has read the length field.
    const uint64_t offset = field_at + 8;
    for (const uint64_t length : {UINT64_MAX, uint64_t{1} << 63, 0 - offset, 0 - offset + 4}) {
      std::vector<uint8_t> bytes = pristine;
      WriteU64At(&bytes, field_at, length);
      EXPECT_FALSE(DeserializeRunTrace(bytes).ok())
          << "length " << length << " at byte " << field_at;
    }
  }
}

TEST(WireChunkTest, SplitCoversEveryByteInOrder) {
  const std::vector<uint8_t> bytes = SerializeRunTrace(RealTrace());
  const std::vector<WireMessage> chunks = SplitWireMessages(bytes, 64);
  ASSERT_EQ(chunks.size(), (bytes.size() + 63) / 64);
  size_t offset = 0;
  for (uint32_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].seq, i);
    EXPECT_EQ(chunks[i].total, chunks.size());
    offset += chunks[i].payload.size();
  }
  EXPECT_EQ(offset, bytes.size());
}

TEST(WireChunkTest, ReassemblyRestoresOriginal) {
  const std::vector<uint8_t> bytes = SerializeRunTrace(RealTrace());
  Result<std::vector<uint8_t>> rebuilt = ReassembleWireMessages(SplitWireMessages(bytes, 128));
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(*rebuilt, bytes);
}

TEST(WireChunkTest, EmptyBufferRoundTrips) {
  const std::vector<uint8_t> empty;
  const std::vector<WireMessage> chunks = SplitWireMessages(empty, 64);
  ASSERT_EQ(chunks.size(), 1u);  // "upload happened" is still visible
  Result<std::vector<uint8_t>> rebuilt = ReassembleWireMessages(chunks);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_TRUE(rebuilt->empty());
}

TEST(WireChunkTest, ReorderedArrivalTolerated) {
  const std::vector<uint8_t> bytes = SerializeRunTrace(RealTrace());
  std::vector<WireMessage> chunks = SplitWireMessages(bytes, 32);
  ASSERT_GT(chunks.size(), 2u);
  // Deterministic shuffle: reverse order exercises full resorting.
  std::vector<WireMessage> reversed(chunks.rbegin(), chunks.rend());
  Result<std::vector<uint8_t>> rebuilt = ReassembleWireMessages(std::move(reversed));
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(*rebuilt, bytes);
}

TEST(WireChunkTest, MissingChunkDetected) {
  const std::vector<uint8_t> bytes = SerializeRunTrace(RealTrace());
  std::vector<WireMessage> chunks = SplitWireMessages(bytes, 32);
  ASSERT_GT(chunks.size(), 2u);
  for (size_t victim : {size_t{0}, chunks.size() / 2, chunks.size() - 1}) {
    std::vector<WireMessage> partial = chunks;
    partial.erase(partial.begin() + static_cast<long>(victim));
    EXPECT_FALSE(ReassembleWireMessages(std::move(partial)).ok()) << "victim " << victim;
  }
}

TEST(WireChunkTest, NoChunksAndInconsistentTotalsRejected) {
  EXPECT_FALSE(ReassembleWireMessages({}).ok());
  std::vector<WireMessage> chunks = SplitWireMessages({1, 2, 3, 4}, 2);
  ASSERT_EQ(chunks.size(), 2u);
  chunks[1].total = 3;
  EXPECT_FALSE(ReassembleWireMessages(chunks).ok());
}

TEST(WireChunkTest, DuplicateChunkRejected) {
  std::vector<WireMessage> chunks = SplitWireMessages({1, 2, 3, 4, 5}, 2);
  ASSERT_EQ(chunks.size(), 3u);
  chunks[2] = chunks[0];  // a retransmit replaced a real chunk
  EXPECT_FALSE(ReassembleWireMessages(std::move(chunks)).ok());
}

TEST(WireTest, ServerAcceptsDeserializedTraces) {
  // End to end: serialize on the "client", deserialize on the "server", and
  // feed it into the sketch pipeline.
  auto module = ParseModule(R"(
func main() {
entry:
  r0 = const 0
  r1 = load r0
  ret
}
)");
  ASSERT_TRUE(module.ok());
  Vm probe(**module, Workload{}, VmOptions{});
  RunResult probe_result = probe.Run();
  ASSERT_FALSE(probe_result.ok());

  GistServer server(**module);
  server.ReportFailure(probe_result.failure);
  MonitoredRun run = RunMonitored(**module, server.plan(), Workload{}, GistOptions{}, 1);

  Result<RunTrace> shipped = DeserializeRunTrace(SerializeRunTrace(run.trace));
  ASSERT_TRUE(shipped.ok());
  server.AddTrace(std::move(*shipped));
  EXPECT_EQ(server.failure_recurrences(), 1u);
  EXPECT_TRUE(server.BuildSketch().ok());
}

}  // namespace
}  // namespace gist
