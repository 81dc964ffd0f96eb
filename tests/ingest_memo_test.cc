// The ingest stream memo (DESIGN.md §16). A successful upload's PT streams
// reduce to digests, and a stream the current plan version already produced
// reuses its digest. The memo must be safe — only identical bytes share a
// digest, and a memo hit feeds the statistics exactly what a fresh decode
// would — and bounded: a fixed byte budget, emptied on every replan.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "src/cache/artifact_store.h"
#include "src/core/gist.h"
#include "src/ir/parser.h"
#include "src/pt/decoder.h"
#include "src/support/rng.h"

// Live heap bytes requested through the global allocator, so the memo's
// budget accounting can be checked against what the memo really holds.
namespace {
std::atomic<int64_t> g_live_heap_bytes{0};
constexpr size_t kHeapHeader = alignof(std::max_align_t);
}  // namespace

void* operator new(size_t size) {
  void* block = std::malloc(size + kHeapHeader);
  if (block == nullptr) {
    throw std::bad_alloc();
  }
  *static_cast<size_t*>(block) = size;
  g_live_heap_bytes += static_cast<int64_t>(size);
  return static_cast<char*>(block) + kHeapHeader;
}

void operator delete(void* pointer) noexcept {
  if (pointer == nullptr) {
    return;
  }
  char* block = static_cast<char*>(pointer) - kHeapHeader;
  g_live_heap_bytes -= static_cast<int64_t>(*reinterpret_cast<size_t*>(block));
  std::free(block);
}

void operator delete(void* pointer, size_t /*size*/) noexcept { operator delete(pointer); }

namespace gist {
namespace {

// Input 0 asks for the feature, input 1 publishes the config it reads, and
// input 2 spins a loop first, so inputs pick distinct PT streams.
constexpr const char* kProgram = R"(
global cfg 1 0
func main() {
entry:
  r0 = input 0
  r1 = input 1
  r2 = input 2
  r3 = const 0
  jmp ^loop
loop:
  r4 = lt r3, r2
  br r4, ^body, ^check
body:
  r5 = const 1
  r3 = add r3, r5
  jmp ^loop
check:
  br r1, ^load_cfg, ^after
load_cfg:
  r6 = const 1
  r7 = alloc r6
  r8 = const 7
  store r7, r8
  r9 = addrof cfg
  store r9, r7
  jmp ^after
after:
  br r0, ^go, ^done
go:
  r10 = addrof cfg
  r11 = load r10
  r12 = load r11
  print r12
  ret
done:
  ret
}
)";

Workload Inputs(Word feature, Word config, Word spins) {
  Workload workload;
  workload.inputs = {feature, config, spins};
  return workload;
}

uint64_t Walks(const GistServer& server) {
  return server.metrics().counter("pt.decode.walks");
}

// Streams one upload walks on a cold memo: cores that traced nothing, or
// the same thing, repeat a stream within the upload itself.
uint64_t DistinctStreams(const RunTrace& trace) {
  const auto& buffers = trace.pt_buffers;
  uint64_t distinct = 0;
  for (auto it = buffers.begin(); it != buffers.end(); ++it) {
    distinct += std::find(buffers.begin(), it, *it) == it ? 1 : 0;
  }
  return distinct;
}

// The predictor set a fresh full decode of every stream yields.
std::vector<Predictor> FreshPredictors(const Module& module, const RunTrace& trace) {
  std::vector<std::vector<uint64_t>> keys;
  for (size_t core = 0; core < trace.pt_buffers.size(); ++core) {
    keys.push_back(
        PtBranchKeys(DecodePt(module, static_cast<CoreId>(core), trace.pt_buffers[core]).trace));
  }
  return ExtractPredictors(std::vector<std::span<const uint64_t>>(keys.begin(), keys.end()),
                           trace.watch_events);
}

class IngestMemoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto parsed = ParseModule(kProgram);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message();
    module_ = std::move(*parsed);
    const RunResult failing = Vm(*module_, Inputs(1, 0, 0), VmOptions{}).Run();
    ASSERT_FALSE(failing.ok());
    report_ = failing.failure;
    options_.initial_sigma = 64;  // track the whole slice
  }

  // Reports the failure and ingests one successful run (returned), so
  // refinement has added what the watchpoints catch and the plan version
  // settles.
  RunTrace Settle(GistServer* server) const {
    server->ReportFailure(report_);
    RunTrace warmup = Successful(*server, 0);
    server->AddTrace(warmup);
    return warmup;
  }

  // A successful monitored run under the server's current plan.
  RunTrace Successful(const GistServer& server, uint64_t run_id, Word spins = 3) const {
    MonitoredRun run =
        RunMonitored(*module_, server.plan(), Inputs(1, 1, spins), options_, run_id);
    EXPECT_TRUE(run.result.ok());
    return std::move(run.trace);
  }

  std::unique_ptr<Module> module_;
  FailureReport report_;
  GistOptions options_;
};

TEST_F(IngestMemoTest, UploadServedFromMemoFeedsSamePredictorsAsFreshDecode) {
  GistServer server(*module_, options_);
  const RunTrace warmup = Settle(&server);
  const uint64_t version = server.plan_version();
  const uint64_t walks = Walks(server);
  const uint64_t packets = server.metrics().counter("pt.decode.packets");
  const RunTrace trace = Successful(server, 1);
  const uint64_t distinct = DistinctStreams(trace);
  ASSERT_GT(distinct, 1u);
  ASSERT_FALSE(FreshPredictors(*module_, trace).empty());

  ASSERT_EQ(server.AddTrace(trace), GistServer::TraceIngest::kAccepted);
  EXPECT_EQ(Walks(server), walks + distinct);
  RunTrace again = trace;
  again.run_id = 2;
  ASSERT_EQ(server.AddTrace(again), GistServer::TraceIngest::kAccepted);
  ASSERT_EQ(server.plan_version(), version);
  EXPECT_EQ(Walks(server), walks + distinct);  // every stream came from the memo

  BehaviorStats reference(options_.beta);
  reference.RecordRun(0, FreshPredictors(*module_, warmup), /*failed=*/false);
  reference.RecordRun(1, FreshPredictors(*module_, trace), /*failed=*/false);
  reference.RecordRun(2, FreshPredictors(*module_, again), /*failed=*/false);
  EXPECT_EQ(server.behavior().Fingerprint(), reference.Fingerprint());

  // Memo hits still account their stream's shape.
  uint64_t trace_packets = 0;
  for (const std::vector<uint8_t>& bytes : trace.pt_buffers) {
    trace_packets += DigestPt(*module_, bytes).stats.packets;
  }
  EXPECT_EQ(server.metrics().counter("pt.decode.packets"), packets + 2 * trace_packets);
}

TEST_F(IngestMemoTest, StreamsDifferingInOneByteNeverShareADigest) {
  GistServer server(*module_, options_);
  Settle(&server);
  const uint64_t walks = Walks(server);
  const uint64_t packets = server.metrics().counter("pt.decode.packets");
  const RunTrace trace = Successful(server, 1);
  size_t longest = 0;
  for (size_t core = 0; core < trace.pt_buffers.size(); ++core) {
    if (trace.pt_buffers[core].size() > trace.pt_buffers[longest].size()) {
      longest = core;
    }
  }
  const std::vector<uint8_t>& original = trace.pt_buffers[longest];
  ASSERT_GT(original.size(), 4u);

  PtDigestMemo memo;
  auto digest = std::make_shared<const PtStreamDigest>(DigestPt(*module_, original));
  memo.Insert(original, digest);
  EXPECT_EQ(memo.Find(original), digest);
  for (size_t i = 0; i < original.size(); ++i) {
    for (uint8_t flip : {uint8_t{0x01}, uint8_t{0x80}}) {
      std::vector<uint8_t> other = original;
      other[i] ^= flip;
      EXPECT_EQ(memo.Find(other), nullptr) << "byte " << i;
    }
  }

  // Through the server: the one changed stream is walked, the others hit,
  // and the counters see the changed stream's own shape.
  const uint64_t version = server.plan_version();
  ASSERT_EQ(server.AddTrace(trace), GistServer::TraceIngest::kAccepted);
  const uint64_t distinct = DistinctStreams(trace);
  EXPECT_EQ(Walks(server), walks + distinct);
  RunTrace changed = trace;
  changed.run_id = 2;
  changed.pt_buffers[longest][original.size() / 2] ^= 0x01;
  server.AddTrace(changed);
  ASSERT_EQ(server.plan_version(), version);
  EXPECT_EQ(Walks(server), walks + distinct + 1);
  uint64_t upload_packets = 0;
  for (const RunTrace* upload : {&trace, static_cast<const RunTrace*>(&changed)}) {
    for (const std::vector<uint8_t>& bytes : upload->pt_buffers) {
      upload_packets += DigestPt(*module_, bytes).stats.packets;
    }
  }
  EXPECT_EQ(server.metrics().counter("pt.decode.packets"), packets + upload_packets);
}

TEST_F(IngestMemoTest, FloodOfDistinctStreamsStaysWithinBudget) {
  GistServer server(*module_, options_);
  server.ReportFailure(report_);
  const uint64_t version = server.plan_version();
  Rng rng(19);
  size_t peak = 0;
  constexpr uint64_t kUploads = 400;
  constexpr size_t kStreamBytes = 8 * 1024;  // 400 x 8 KiB is ~3x the budget
  for (uint64_t run_id = 1; run_id <= kUploads; ++run_id) {
    RunTrace trace;
    trace.run_id = run_id;
    trace.pt_buffers.emplace_back(kStreamBytes);
    for (uint8_t& byte : trace.pt_buffers.back()) {
      byte = static_cast<uint8_t>(rng.NextU64());
    }
    server.AddTrace(std::move(trace));
    ASSERT_LE(server.stream_memo_bytes(), PtDigestMemo::kBudgetBytes) << "upload " << run_id;
    peak = std::max(peak, server.stream_memo_bytes());
  }
  EXPECT_EQ(server.plan_version(), version);  // one plan version throughout
  EXPECT_EQ(Walks(server), kUploads);         // all distinct: no hits
  EXPECT_GT(peak, PtDigestMemo::kBudgetBytes / 2);

  // A stream larger than the whole budget is walked but never kept.
  RunTrace huge;
  huge.run_id = kUploads + 1;
  huge.pt_buffers.emplace_back(PtDigestMemo::kBudgetBytes + 1, uint8_t{0});
  server.AddTrace(huge);
  EXPECT_LE(server.stream_memo_bytes(), PtDigestMemo::kBudgetBytes);
  huge.run_id = kUploads + 2;
  server.AddTrace(huge);
  EXPECT_EQ(Walks(server), kUploads + 2);
}

TEST_F(IngestMemoTest, BudgetCountsEveryHeapByteTheMemoHolds) {
  GistServer server(*module_, options_);
  const RunTrace trace = Settle(&server);
  // Distinct streams of every shape: the real ones, each with one byte
  // flipped (new branch keys, or an error and its message), and garbage of
  // growing length.
  std::vector<std::vector<uint8_t>> streams;
  for (const std::vector<uint8_t>& original : trace.pt_buffers) {
    for (size_t i = 0; i < original.size(); ++i) {
      streams.push_back(original);
      streams.back()[i] ^= 0x04;
    }
  }
  Rng rng(16);
  for (size_t length = 1; streams.size() < 600; ++length) {
    streams.emplace_back(length % 200 + 1);
    for (uint8_t& byte : streams.back()) {
      byte = static_cast<uint8_t>(rng.NextU64());
    }
  }
  std::vector<PtStreamDigest> digests;
  for (const std::vector<uint8_t>& bytes : streams) {
    digests.push_back(DigestPt(*module_, bytes));
  }

  for (size_t count = 1; count <= streams.size(); ++count) {
    const int64_t before = g_live_heap_bytes.load();
    PtDigestMemo memo;
    for (size_t i = 0; i < count; ++i) {
      memo.Insert(streams[i], std::make_shared<const PtStreamDigest>(digests[i]));
    }
    const int64_t held = g_live_heap_bytes.load() - before;
    ASSERT_GT(held, 0);
    ASSERT_GE(memo.bytes(), static_cast<size_t>(held)) << count << " entries";
    memo.Clear();
    EXPECT_EQ(memo.bytes(), 0u);
    ASSERT_EQ(g_live_heap_bytes.load(), before) << "Clear() frees everything";
  }
}

TEST_F(IngestMemoTest, ReplanAndReportForgetEveryStream) {
  GistServer server(*module_, options_);
  server.ReportFailure(report_);
  const RunTrace trace = Successful(server, 1);
  const uint64_t distinct = DistinctStreams(trace);
  server.AddTrace(trace);
  ASSERT_EQ(Walks(server), distinct);

  server.AdvanceAst();  // replans
  RunTrace after_replan = trace;
  after_replan.run_id = 2;
  server.AddTrace(after_replan);
  EXPECT_EQ(Walks(server), 2 * distinct);

  server.ReportFailure(report_);
  RunTrace after_report = trace;
  after_report.run_id = 3;
  server.AddTrace(after_report);
  EXPECT_EQ(Walks(server), 3 * distinct);
}

TEST_F(IngestMemoTest, FailingTracesAreAlwaysDecodedInFull) {
  GistServer server(*module_, options_);
  server.ReportFailure(report_);
  MonitoredRun run = RunMonitored(*module_, server.plan(), Inputs(1, 0, 2), options_, 1);
  ASSERT_FALSE(run.result.ok());
  const uint64_t cores = run.trace.pt_buffers.size();
  RunTrace again = run.trace;
  again.run_id = 2;
  ASSERT_EQ(server.AddTrace(std::move(run.trace)), GistServer::TraceIngest::kAccepted);
  ASSERT_EQ(server.AddTrace(std::move(again)), GistServer::TraceIngest::kAccepted);
  EXPECT_EQ(Walks(server), 2 * cores);
  EXPECT_EQ(server.stream_memo_bytes(), 0u);
}

// A successful run's stream is walked with DigestPt whether or not a store
// is attached: only failing runs look their full decodes up in the store.
TEST_F(IngestMemoTest, SuccessfulStreamsNeverGoThroughTheStore) {
  ArtifactStore store;
  GistOptions with_store = options_;
  with_store.store = &store;
  GistServer cached(*module_, with_store);
  GistServer plain(*module_, options_);
  plain.ReportFailure(report_);
  cached.ReportFailure(report_);
  auto pt_decode_lookups = [&store] {
    const ArtifactKindStats stats =
        store.Snapshot().kinds[static_cast<size_t>(ArtifactKind::kPtDecode)];
    return stats.hits() + stats.misses;
  };

  for (uint64_t run_id = 1; run_id <= 4; ++run_id) {
    const RunTrace trace = Successful(plain, run_id, /*spins=*/run_id % 2);
    ASSERT_EQ(plain.AddTrace(trace), GistServer::TraceIngest::kAccepted);
    ASSERT_EQ(cached.AddTrace(trace), GistServer::TraceIngest::kAccepted);
  }
  EXPECT_EQ(pt_decode_lookups(), 0u);
  const ArtifactKindStats predictors =
      store.Snapshot().kinds[static_cast<size_t>(ArtifactKind::kPredictors)];
  EXPECT_EQ(predictors.hits() + predictors.misses, 4u);  // one lookup per upload

  MonitoredRun failing = RunMonitored(*module_, plain.plan(), Inputs(1, 0, 2), options_, 5);
  ASSERT_FALSE(failing.result.ok());
  uint64_t nonempty = 0;
  for (const std::vector<uint8_t>& bytes : failing.trace.pt_buffers) {
    nonempty += bytes.empty() ? 0 : 1;  // empty buffers bypass the store
  }
  ASSERT_GT(nonempty, 0u);
  ASSERT_EQ(plain.AddTrace(failing.trace), GistServer::TraceIngest::kAccepted);
  ASSERT_EQ(cached.AddTrace(failing.trace), GistServer::TraceIngest::kAccepted);
  EXPECT_EQ(pt_decode_lookups(), nonempty);

  EXPECT_EQ(Walks(cached), Walks(plain));
  EXPECT_EQ(cached.metrics().counter("pt.decode.packets"),
            plain.metrics().counter("pt.decode.packets"));
  EXPECT_EQ(cached.behavior().Fingerprint(), plain.behavior().Fingerprint());
}

}  // namespace
}  // namespace gist
