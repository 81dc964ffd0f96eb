// End-to-end PT property: running a program under the always-on tracer and
// decoding the per-core buffers must reconstruct exactly the instructions
// that actually retired (per ground-truth observer), including branch
// outcomes — for single- and multi-threaded programs across seeds.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <utility>
#include <unordered_set>

#include "src/ir/parser.h"
#include "src/pt/decoder.h"
#include "src/pt/tracer.h"
#include "src/support/rng.h"
#include "src/vm/vm.h"

namespace gist {
namespace {

// Ground truth: the instructions that actually retired.
class GroundTruth : public ExecutionObserver {
 public:
  void OnInstrRetired(ThreadId tid, CoreId, InstrId instr) override {
    executed_.insert(instr);
    per_thread_[tid].push_back(instr);
  }
  void OnBranch(ThreadId tid, CoreId, InstrId instr, bool taken) override {
    branches_.push_back(std::make_tuple(tid, instr, taken));
  }

  std::unordered_set<InstrId> executed_;
  std::map<ThreadId, std::vector<InstrId>> per_thread_;
  std::vector<std::tuple<ThreadId, InstrId, bool>> branches_;
};

struct TracedRun {
  GroundTruth truth;
  std::vector<DecodedCoreTrace> decoded;
  RunResult result;
  const Module* module = nullptr;
};

TracedRun RunTraced(const char* program, uint64_t seed, uint32_t num_cores = 4) {
  auto module = ParseModule(program);
  EXPECT_TRUE(module.ok()) << module.error().message();

  TracedRun out;
  PtTracer tracer(num_cores, kDefaultPtBufferBytes, /*always_on=*/true);
  VmOptions options;
  options.num_cores = num_cores;
  options.observers = {&tracer, &out.truth};
  Workload workload;
  workload.schedule_seed = seed;
  out.result = Vm(**module, workload, options).Run();

  for (CoreId core = 0; core < num_cores; ++core) {
    auto decoded = DecodePtStream(**module, core, tracer.buffer(core).bytes());
    EXPECT_TRUE(decoded.ok()) << decoded.error().message();
    out.decoded.push_back(*decoded);
  }
  // Re-parse so the module outlives this function for ExecutedInstrs use.
  static std::vector<std::unique_ptr<Module>> keep_alive;
  keep_alive.push_back(std::move(*module));
  out.module = keep_alive.back().get();
  return out;
}

constexpr const char* kSequentialProgram = R"(
func main() {
entry:
  r0 = const 0
  r1 = const 0
  jmp ^head
head:
  r2 = const 25
  r3 = lt r1, r2
  br r3, ^body, ^exit
body:
  r4 = const 2
  r5 = rem r1, r4
  br r5, ^odd, ^even
odd:
  r0 = add r0, r1
  jmp ^next
even:
  r0 = sub r0, r1
  jmp ^next
next:
  r6 = const 1
  r1 = add r1, r6
  jmp ^head
exit:
  print r0
  ret
}
)";

constexpr const char* kThreadedProgram = R"(
global cell 1 0
func helper(1) {
entry:
  r1 = const 3
  r2 = mul r0, r1
  ret r2
}
func worker(1) {
entry:
  r1 = const 0
  jmp ^head
head:
  r2 = const 8
  r3 = lt r1, r2
  br r3, ^body, ^exit
body:
  r4 = call @helper(r1)
  r5 = addrof cell
  r6 = load r5
  r7 = add r6, r4
  store r5, r7
  r8 = const 1
  r1 = add r1, r8
  jmp ^head
exit:
  ret
}
func main() {
entry:
  r0 = const 1
  r1 = spawn @worker(r0)
  r2 = const 2
  r3 = spawn @worker(r2)
  join r1
  join r3
  r4 = addrof cell
  r5 = load r4
  print r5
  ret
}
)";

class PtRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PtRoundTrip, SequentialExecutedSetMatches) {
  TracedRun run = RunTraced(kSequentialProgram, GetParam());
  ASSERT_TRUE(run.result.ok());
  const auto decoded_set = ExecutedInstrs(*run.module, run.decoded);
  EXPECT_EQ(decoded_set, run.truth.executed_);
}

TEST_P(PtRoundTrip, ThreadedExecutedSetMatches) {
  TracedRun run = RunTraced(kThreadedProgram, GetParam());
  ASSERT_TRUE(run.result.ok());
  const auto decoded_set = ExecutedInstrs(*run.module, run.decoded);
  EXPECT_EQ(decoded_set, run.truth.executed_);
}

TEST_P(PtRoundTrip, BranchOutcomesMatchGroundTruthPerThread) {
  TracedRun run = RunTraced(kThreadedProgram, GetParam());
  ASSERT_TRUE(run.result.ok());
  // Collect decoded branches per thread (order within a thread is exact; the
  // decoder sees per-core streams and threads don't migrate cores).
  std::map<ThreadId, std::vector<std::pair<InstrId, bool>>> decoded;
  for (const DecodedCoreTrace& trace : run.decoded) {
    for (const PtBranch& branch : trace.branches) {
      decoded[branch.tid].push_back({branch.instr, branch.taken});
    }
  }
  std::map<ThreadId, std::vector<std::pair<InstrId, bool>>> truth;
  for (const auto& [tid, instr, taken] : run.truth.branches_) {
    truth[tid].push_back({instr, taken});
  }
  EXPECT_EQ(decoded, truth);
}

TEST_P(PtRoundTrip, VisitsAreWellFormed) {
  TracedRun run = RunTraced(kThreadedProgram, GetParam());
  for (const DecodedCoreTrace& trace : run.decoded) {
    for (const PtVisit& visit : trace.visits) {
      if (visit.first_index > visit.last_index) {
        continue;  // truncated away
      }
      const auto& instrs =
          run.module->function(visit.function).block(visit.block).instructions();
      EXPECT_LT(visit.last_index, instrs.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PtRoundTrip, ::testing::Values(1, 2, 3, 7, 11, 42, 1001));

TEST(PtDecoderTest, TogglingLimitsDecodedWindow) {
  // Enable tracing manually only around a marked region and confirm the
  // decoded set is a strict subset of execution.
  auto module = ParseModule(kSequentialProgram);
  ASSERT_TRUE(module.ok());

  PtTracer tracer(1, kDefaultPtBufferBytes, /*always_on=*/false);

  // Toggle tracing on when entering block "body" and off after one
  // instruction, via a tiny instrumentation observer.
  class Toggler : public ExecutionObserver {
   public:
    Toggler(PtTracer& tracer, const Module& module) : tracer_(tracer), module_(module) {}
    void OnBlockEnter(ThreadId tid, CoreId core, FunctionId function, BlockId block) override {
      if (module_.function(function).block(block).label() == "body") {
        tracer_.Enable(core, tid, function, block);
      }
    }
    void OnInstrRetired(ThreadId, CoreId core, InstrId instr) override {
      const InstrLocation& loc = module_.location(instr);
      if (module_.function(loc.function).block(loc.block).label() == "body" &&
          loc.index == 1) {
        tracer_.Disable(core, loc.function, loc.block, loc.index);
      }
    }

   private:
    PtTracer& tracer_;
    const Module& module_;
  };

  Toggler toggler(tracer, **module);
  GroundTruth truth;
  VmOptions options;
  options.num_cores = 1;
  options.observers = {&toggler, &tracer, &truth};
  RunResult result = Vm(**module, Workload{}, options).Run();
  ASSERT_TRUE(result.ok());

  auto decoded = DecodePtStream(**module, 0, tracer.buffer(0).bytes());
  ASSERT_TRUE(decoded.ok()) << decoded.error().message();
  std::vector<DecodedCoreTrace> traces{*decoded};
  const auto decoded_set = ExecutedInstrs(**module, traces);

  EXPECT_FALSE(decoded_set.empty());
  EXPECT_LT(decoded_set.size(), truth.executed_.size());
  // Everything decoded did really execute.
  for (InstrId id : decoded_set) {
    EXPECT_TRUE(truth.executed_.count(id)) << "instr " << id;
  }
  // The decoded window covers exactly the two instructions of "body" that
  // were inside the enable window.
  const Function& f = (*module)->function(0);
  const BlockId body = f.FindBlock("body");
  const auto& body_instrs = f.block(body).instructions();
  EXPECT_TRUE(decoded_set.count(body_instrs[0].id));
  EXPECT_TRUE(decoded_set.count(body_instrs[1].id));
  EXPECT_FALSE(decoded_set.count(body_instrs[2].id));
}

TEST(PtDecoderTest, EmptyBufferDecodesToNothing) {
  auto module = ParseModule(kSequentialProgram);
  ASSERT_TRUE(module.ok());
  std::vector<uint8_t> empty;
  auto decoded = DecodePtStream(**module, 0, empty);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->visits.empty());
  EXPECT_TRUE(decoded->branches.empty());
}

TEST(PtDecoderTest, OverflowMarksTraceAndStops) {
  auto module = ParseModule(kThreadedProgram);
  ASSERT_TRUE(module.ok());
  // Tiny buffer forces overflow quickly.
  PtTracer tracer(4, /*buffer_bytes=*/64, /*always_on=*/true);
  VmOptions options;
  options.observers = {&tracer};
  Vm(**module, Workload{}, options).Run();
  bool any_overflow = false;
  for (CoreId core = 0; core < 4; ++core) {
    if (tracer.buffer(core).overflowed()) {
      any_overflow = true;
      auto decoded = DecodePtStream(**module, core, tracer.buffer(core).bytes());
      ASSERT_TRUE(decoded.ok()) << decoded.error().message();
      EXPECT_TRUE(decoded->overflow);
    }
  }
  EXPECT_TRUE(any_overflow);
}

// A counted loop: main:loop:2 is the loop's conditional branch.
constexpr const char* kLoopProgram = R"(
func main() {
entry:
  r0 = const 0
  jmp ^loop
loop:
  r1 = const 1
  r2 = lt r0, r1
  br r2, ^body, ^done
body:
  r0 = add r0, r1
  jmp ^loop
done:
  ret
}
)";

// PSB, PIP 0, PGE main:entry:0, PGD main:loop:2, then `tail` appended; returns
// the stream and the offset where `tail` starts.
std::pair<std::vector<uint8_t>, size_t> StoppedWalkerStream(
    const Module& module, const std::function<void(PtBuffer&)>& tail) {
  const FunctionId main_fn = module.FindFunction("main");
  const BlockId loop = module.function(main_fn).FindBlock("loop");
  PtBuffer buffer(1 << 16);
  buffer.AppendPsb();
  buffer.AppendPip(0);
  buffer.AppendPge(PtIp{main_fn, 0, 0});
  buffer.AppendPgd(PtIp{main_fn, loop, 2});
  const size_t tail_offset = buffer.bytes().size();
  tail(buffer);
  return {buffer.bytes(), tail_offset};
}

TEST(PtDecoderTest, ControlFlowAfterPgdIsProtocolFault) {
  // Real PT emits nothing between a TIP.PGD and the next PGE
  // (PtTracer::Disable/Enable), so a TNT, a TIP or a FUP for the walker a
  // PGD stopped is a corrupt stream, not more control flow.
  auto module = ParseModule(kLoopProgram);
  ASSERT_TRUE(module.ok()) << module.error().message();
  const FunctionId main_fn = (*module)->FindFunction("main");
  const std::vector<std::pair<const char*, std::function<void(PtBuffer&)>>> tails = {
      {"TNT", [](PtBuffer& b) {
         b.AppendTnt(0b1, 1);
         b.AppendTnt(0b0, 1);
       }},
      {"TIP", [&](PtBuffer& b) { b.AppendTip(PtIp{main_fn, 0, 0}); }},
      {"FUP", [&](PtBuffer& b) { b.AppendFup(PtIp{main_fn, 0, 0}); }},
  };
  for (const auto& [name, tail] : tails) {
    SCOPED_TRACE(name);
    const auto [bytes, tail_offset] = StoppedWalkerStream(**module, tail);
    const PtDecodeResult result = DecodePt(**module, 0, bytes);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error->fault, PtDecodeFault::kProtocol);
    EXPECT_EQ(result.error->offset, tail_offset);
    // Only entry and the first pass through loop were traced.
    EXPECT_EQ(result.trace.visits.size(), 2u);
    EXPECT_TRUE(result.trace.branches.empty());
    const PtStreamDigest digest = DigestPt(**module, bytes);
    ASSERT_FALSE(digest.ok());
    EXPECT_EQ(digest.error->offset, tail_offset);
    const PtTraceSummary summary = SummarizePt(**module, {bytes});
    ASSERT_FALSE(summary.cores[0].ok());
    EXPECT_EQ(summary.cores[0].error->offset, tail_offset);
  }
}

TEST(PtDecoderTest, PgeAfterPgdStartsAFreshWalker) {
  auto module = ParseModule(kLoopProgram);
  ASSERT_TRUE(module.ok()) << module.error().message();
  const FunctionId main_fn = (*module)->FindFunction("main");
  const BlockId loop = (*module)->function(main_fn).FindBlock("loop");
  const auto [bytes, tail_offset] = StoppedWalkerStream(**module, [&](PtBuffer& b) {
    b.AppendPsb();
    b.AppendPip(0);
    b.AppendPge(PtIp{main_fn, loop, 0});
    b.AppendTnt(0b0, 1);  // loop exits: done
    b.AppendTip(PtEndIp());
  });
  (void)tail_offset;
  const PtDecodeResult result = DecodePt(**module, 0, bytes);
  ASSERT_TRUE(result.ok()) << result.error->Format();
  EXPECT_EQ(result.trace.branches.size(), 1u);
  EXPECT_EQ(result.trace.visits.size(), 4u);  // entry, loop | loop, done
}

TEST(PtDecoderFuzzTest, RandomStreamsNeverCrash) {
  auto module = ParseModule(kSequentialProgram);
  ASSERT_TRUE(module.ok());
  Rng rng(777);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<uint8_t> bytes;
    const size_t length = rng.NextBelow(256);
    for (size_t i = 0; i < length; ++i) {
      bytes.push_back(static_cast<uint8_t>(rng.NextBelow(256)));
    }
    auto decoded = DecodePtStream(**module, 0, bytes);
    (void)decoded;  // error or success; never a crash
  }
  SUCCEED();
}

TEST(PtDecoderFuzzTest, CorruptedRealTracesNeverCrash) {
  auto module = ParseModule(kThreadedProgram);
  ASSERT_TRUE(module.ok());
  PtTracer tracer(4, kDefaultPtBufferBytes, /*always_on=*/true);
  VmOptions options;
  options.observers = {&tracer};
  Vm(**module, Workload{}, options).Run();
  tracer.FlushAllPending();
  const std::vector<uint8_t> pristine = tracer.buffer(0).bytes();
  ASSERT_FALSE(pristine.empty());

  Rng rng(888);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<uint8_t> corrupted = pristine;
    const int flips = 1 + static_cast<int>(rng.NextBelow(4));
    for (int i = 0; i < flips; ++i) {
      corrupted[rng.NextBelow(corrupted.size())] ^=
          static_cast<uint8_t>(1u << rng.NextBelow(8));
    }
    auto decoded = DecodePtStream(**module, 0, corrupted);
    (void)decoded;
  }
  SUCCEED();
}

}  // namespace
}  // namespace gist
