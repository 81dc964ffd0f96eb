// Summary-walk equivalence (DESIGN.md §15). Ingest summarizes a failing
// upload in one walk per PT stream, with no visit list: each stream's
// digest, the executed-instruction bitset and the last per-thread position
// of every executed (instruction, thread) pair. The oracle
// (tests/summary_oracle.h) is the path it replaced: DecodePt, then
// PtBranchKeys per stream and one walk over all the visits. They must agree
// field for field — stats, fault and offset, branch keys, bitset and
// positions — on the failing uploads of fleets of all 11 apps and a corpus
// subset, on truncated, bit-flipped, garbage and mutated streams, and on
// hand-built streams that pin the PGD truncation rule and the cross-core
// position counters. One summarizer serves every trace of a test, so its
// reused buffers are checked too. A stream naming 200k thread ids pins the
// linear bounds.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/coop/fleet.h"
#include "src/core/gist.h"
#include "src/corpus/corpus.h"
#include "src/ir/parser.h"
#include "src/pt/decoder.h"
#include "src/pt/tracer.h"
#include "src/support/rng.h"
#include "src/vm/vm.h"
#include "tests/summary_oracle.h"

namespace gist {
namespace {

using Streams = std::vector<std::vector<uint8_t>>;

// Compares field by field, so a failure names what diverged.
void ExpectSummariesEqual(const PtTraceSummary& got, const PtTraceSummary& want) {
  ASSERT_EQ(got.cores.size(), want.cores.size());
  for (size_t core = 0; core < want.cores.size(); ++core) {
    SCOPED_TRACE(testing::Message() << "core " << core);
    EXPECT_TRUE(got.cores[core].stats == want.cores[core].stats);
    ASSERT_EQ(got.cores[core].error.has_value(), want.cores[core].error.has_value());
    if (want.cores[core].error.has_value()) {
      EXPECT_EQ(got.cores[core].error->fault, want.cores[core].error->fault);
      EXPECT_EQ(got.cores[core].error->offset, want.cores[core].error->offset);
      EXPECT_EQ(got.cores[core].error->message, want.cores[core].error->message);
    }
    EXPECT_EQ(got.cores[core].branch_keys, want.cores[core].branch_keys);
  }
  EXPECT_EQ(got.executed, want.executed);
  EXPECT_EQ(got.positions, want.positions);
}

// Checks the summary walk, and the fold of the same streams' DecodePt
// results that batch sketch builds use, against the oracle.
void ExpectSummaryMatchesOracle(PtTraceSummarizer& summarizer, const Module& module,
                                const Streams& streams, const std::string& what) {
  SCOPED_TRACE(what);
  const PtTraceSummary want = OracleSummary(module, streams);
  {
    SCOPED_TRACE("summary walk");
    ExpectSummariesEqual(summarizer.Summarize(streams), want);
  }
  std::vector<PtDecodeResult> decoded;
  for (size_t core = 0; core < streams.size(); ++core) {
    decoded.push_back(DecodePt(module, static_cast<CoreId>(core), streams[core]));
  }
  SCOPED_TRACE("fold of decodes");
  ExpectSummariesEqual(summarizer.Summarize(decoded), want);
}

// Runs one fleet and checks every failing upload the server accepted;
// returns how many it checked.
uint64_t CheckFleetFailures(const Module& module, const WorkloadGenerator& generator,
                            uint64_t fleet_seed, const std::string& name,
                            std::vector<Streams>* sample) {
  FleetOptions options;
  options.runs_per_iteration = 100;
  options.max_iterations = 3;
  options.fleet_seed = fleet_seed;
  options.gist.title = name;
  // The server retains the raw uploads only in shadow mode.
  options.gist.stats_shadow = true;
  Fleet fleet(module, generator, options);
  fleet.Run([](const FailureSketch&) { return false; });
  // Ingest summarizes and digests; only the shadow batch pass of the sketch
  // builds decodes streams into visit lists.
  const MetricsRegistry& metrics = fleet.server().metrics();
  EXPECT_EQ(metrics.counter("pt.decode.materialized"), metrics.counter("stats.sketch_pt_decodes"))
      << name;
  PtTraceSummarizer summarizer(module);
  uint64_t checked = 0;
  for (const RunTrace& trace : fleet.server().traces()) {
    if (!trace.failed) {
      continue;
    }
    ExpectSummaryMatchesOracle(summarizer, module, trace.pt_buffers,
                               name + " trace " + std::to_string(trace.run_id));
    ++checked;
    if (sample != nullptr && sample->size() < 8) {
      sample->push_back(trace.pt_buffers);
    }
  }
  return checked;
}

// Truncations, bit flips, byte splices and byte drops of one core of a
// failing upload; the other cores stay intact.
void CheckMutations(const Module& module, const std::vector<Streams>& sample, uint64_t seed,
                    const std::string& name) {
  PtTraceSummarizer summarizer(module);
  Rng rng(seed);
  for (int trial = 0; trial < 200; ++trial) {
    Streams streams = sample[trial % sample.size()];
    std::vector<uint8_t>& bytes = streams[rng.NextBelow(streams.size())];
    if (bytes.empty()) {
      continue;
    }
    switch (rng.NextBelow(4)) {
      case 0:
        bytes.resize(rng.NextBelow(bytes.size()));
        break;
      case 1:
        for (uint64_t flips = 1 + rng.NextBelow(4); flips > 0; --flips) {
          bytes[rng.NextBelow(bytes.size())] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
        }
        break;
      case 2:
        bytes.insert(bytes.begin() + static_cast<long>(rng.NextBelow(bytes.size() + 1)),
                     static_cast<uint8_t>(rng.NextU64()));
        break;
      default:
        bytes.erase(bytes.begin() + static_cast<long>(rng.NextBelow(bytes.size())));
        break;
    }
    ExpectSummaryMatchesOracle(summarizer, module, streams,
                               name + " mutation " + std::to_string(trial));
  }
}

TEST(PtSummaryTest, MatchesOracleOnEveryAppFailureAndItsMutations) {
  for (const auto& app : MakeAllApps()) {
    const std::string name = app->info().name;
    std::vector<Streams> sample;
    const uint64_t checked = CheckFleetFailures(
        app->module(),
        [&app](uint64_t run_index, Rng& rng) { return app->MakeWorkload(run_index, rng); },
        /*fleet_seed=*/11, name, &sample);
    EXPECT_GT(checked, 0u) << name;
    ASSERT_FALSE(sample.empty()) << name;
    CheckMutations(app->module(), sample, /*seed=*/checked, name);
  }
}

TEST(PtSummaryTest, MatchesOracleOnCorpusSubset) {
  CorpusOptions gen;
  gen.seed = 2015;
  gen.count = 20;
  const std::vector<GeneratedProgram> programs = GenerateCorpus(gen);
  ASSERT_EQ(programs.size(), 20u);
  uint64_t checked = 0;
  for (const GeneratedProgram& program : programs) {
    const CorpusManifest& manifest = program.manifest;
    checked += CheckFleetFailures(
        *program.module,
        [&manifest](uint64_t run_index, Rng& rng) {
          return CorpusWorkload(manifest, run_index, rng);
        },
        DeriveSeed(2015, program.index), manifest.name, nullptr);
  }
  EXPECT_GT(checked, 100u);
}

TEST(PtSummaryTest, MaterializedCounterCountsEveryDecodePt) {
  // The counter is read at DecodePt itself, so a visit-list decode anywhere
  // in ingest or a sketch build shows up in pt.decode.materialized.
  auto apps = MakeAllApps();
  const BugApp& app = *apps.front();
  std::vector<Streams> sample;
  CheckFleetFailures(
      app.module(),
      [&app](uint64_t run_index, Rng& rng) { return app.MakeWorkload(run_index, rng); },
      /*fleet_seed=*/11, app.info().name, &sample);
  ASSERT_FALSE(sample.empty());
  const uint64_t before = PtMaterializedDecodes();
  DigestPt(app.module(), sample[0][0]);
  SummarizePt(app.module(), sample[0]);
  EXPECT_EQ(PtMaterializedDecodes(), before);
  DecodePt(app.module(), 0, sample[0][0]);
  EXPECT_EQ(PtMaterializedDecodes(), before + 1);

  // A shadow build re-decodes every stored stream into visit lists, and the
  // server counts each of them.
  FleetOptions options;
  options.runs_per_iteration = 100;
  options.max_iterations = 1;
  options.fleet_seed = 11;
  options.gist.stats_shadow = true;
  Fleet fleet(
      app.module(),
      [&app](uint64_t run_index, Rng& rng) { return app.MakeWorkload(run_index, rng); }, options);
  fleet.Run([](const FailureSketch&) { return false; });
  const MetricsRegistry& metrics = fleet.server().metrics();
  EXPECT_GT(metrics.counter("pt.decode.materialized"), 0u);
  EXPECT_EQ(metrics.counter("pt.decode.materialized"), metrics.counter("stats.sketch_pt_decodes"));
}

// --- Malformed corpora ------------------------------------------------------

// pt_malformed_test's branchy two-worker program, traced always-on.
const char* kThreadedProgram = R"(
global counter 1 0
func worker(1) {
entry:
  r1 = const 0
  jmp ^loop
loop:
  r2 = lt r1, r0
  br r2, ^body, ^done
body:
  r3 = addrof counter
  r4 = load r3
  r5 = add r4, r1
  store r3, r5
  r6 = const 1
  r1 = add r1, r6
  jmp ^loop
done:
  ret
}
func main() {
entry:
  r0 = const 5
  r1 = spawn @worker(r0)
  r2 = const 3
  r3 = spawn @worker(r2)
  join r1
  join r3
  ret
}
)";

class MalformedSummaryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto module = ParseModule(kThreadedProgram);
    ASSERT_TRUE(module.ok()) << module.error().message();
    module_ = std::move(*module);
    summarizer_ = std::make_unique<PtTraceSummarizer>(*module_);
  }

  Streams Trace(uint64_t seed) {
    PtTracer tracer(2, kDefaultPtBufferBytes, /*always_on=*/true);
    VmOptions options;
    options.num_cores = 2;
    options.observers = {&tracer};
    Workload workload;
    workload.schedule_seed = seed;
    Vm(*module_, workload, options).Run();
    return {tracer.buffer(0).bytes(), tracer.buffer(1).bytes()};
  }

  void Check(const Streams& streams, const std::string& what) {
    ExpectSummaryMatchesOracle(*summarizer_, *module_, streams, what);
  }

  std::unique_ptr<Module> module_;
  std::unique_ptr<PtTraceSummarizer> summarizer_;
};

TEST_F(MalformedSummaryTest, EveryTruncation) {
  const Streams streams = Trace(17);
  for (size_t core = 0; core < streams.size(); ++core) {
    for (size_t cut = 0; cut < streams[core].size(); ++cut) {
      Streams cut_streams = streams;
      cut_streams[core].resize(cut);
      Check(cut_streams, "core " + std::to_string(core) + " prefix " + std::to_string(cut));
    }
  }
}

TEST_F(MalformedSummaryTest, BitFlips) {
  const Streams streams = Trace(23);
  Rng rng(2026);
  for (int trial = 0; trial < 2000; ++trial) {
    Streams flipped = streams;
    std::vector<uint8_t>& bytes = flipped[trial % flipped.size()];
    const int flips = 1 + static_cast<int>(rng.NextBelow(8));
    for (int i = 0; i < flips; ++i) {
      bytes[rng.NextBelow(bytes.size())] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
    }
    Check(flipped, "trial " + std::to_string(trial));
  }
}

TEST_F(MalformedSummaryTest, Garbage) {
  const Streams streams = Trace(29);
  Rng rng(4052);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> garbage(rng.NextBelow(257));
    for (uint8_t& byte : garbage) {
      byte = static_cast<uint8_t>(rng.NextU64());
    }
    Check({streams[0], garbage}, "garbage trial " + std::to_string(trial));
  }
}

// --- Hand-built streams ------------------------------------------------------

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

class HandBuiltSummaryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto module = ParseModule(kLoopProgram);
    ASSERT_TRUE(module.ok()) << module.error().message();
    module_ = std::move(*module);
    main_ = module_->FindFunction("main");
    loop_ = module_->function(main_).FindBlock("loop");
    body_ = module_->function(main_).FindBlock("body");
    done_ = module_->function(main_).FindBlock("done");
  }

  InstrId Instr(BlockId block, uint32_t index) const {
    return module_->function(main_).block(block).instructions()[index].id;
  }

  std::unique_ptr<Module> module_;
  FunctionId main_ = kNoFunction;
  BlockId loop_ = kNoBlock;
  BlockId body_ = kNoBlock;
  BlockId done_ = kNoBlock;
};

TEST_F(HandBuiltSummaryTest, SecondPgdMatchesADroppedVisit) {
  // Thread 0 walks entry, loop, body, loop. The first PGD stops it inside
  // body: body ends at index 0 and the second loop visit is dropped. The
  // second PGD names loop:1; the dropped visit (marked first 1, last 0)
  // still matches it, so nothing more changes. Had the first PGD erased
  // the dropped visit, the second would cut the first loop visit to
  // loop[0..1] and drop body.
  PtBuffer core0(1 << 16);
  core0.AppendPsb();
  core0.AppendPip(0);
  core0.AppendPge(PtIp{main_, 0, 0});
  core0.AppendTnt(0b1, 1);
  core0.AppendPgd(PtIp{main_, body_, 0});
  core0.AppendPgd(PtIp{main_, loop_, 1});
  // Thread 0 resumes on core 1: its positions continue after core 0's.
  PtBuffer core1(1 << 16);
  core1.AppendPsb();
  core1.AppendPip(0);
  core1.AppendPge(PtIp{main_, loop_, 0});
  core1.AppendTnt(0b0, 1);
  core1.AppendTip(PtEndIp());
  const Streams streams = {core0.bytes(), core1.bytes()};

  PtTraceSummarizer summarizer(*module_);
  ExpectSummaryMatchesOracle(summarizer, *module_, streams, "two PGDs");

  const PtTraceSummary summary = summarizer.Summarize(streams);
  ASSERT_TRUE(summary.cores[0].ok() && summary.cores[1].ok());
  // Core 0 retired entry[0..1], loop[0..2], body[0]: positions 0..5. Core 1
  // retired loop[0..2] at 6..8 and done[0] at 9.
  const auto position = [&](InstrId instr) -> int64_t {
    for (const ExecutedPosition& entry : summary.positions) {
      if (entry.instr == instr && entry.tid == 0) {
        return entry.pos;
      }
    }
    return -1;
  };
  EXPECT_EQ(position(Instr(body_, 0)), 5);
  EXPECT_EQ(position(Instr(body_, 1)), -1);
  EXPECT_EQ(position(Instr(loop_, 2)), 8);
  EXPECT_EQ(position(Instr(done_, 0)), 9);
  EXPECT_EQ(summary.positions.size(), 7u);
}

// A loop whose body calls a leaf: returns re-enter main:loop at index 2, so
// a thread's visits of one block start at different indices.
constexpr const char* kCallLoopProgram = R"(
func leaf() {
entry:
  ret
}
func main() {
entry:
  r0 = const 0
  jmp ^loop
loop:
  r1 = const 1
  r3 = call @leaf()
  r2 = lt r0, r1
  br r2, ^body, ^done
body:
  r0 = add r0, r1
  jmp ^loop
done:
  ret
}
)";

// TraceSink's rule, restated on a visit list: the newest visit of the PGD's
// block that starts at or before its index ends there; every later visit is
// marked dropped (first 1, last 0), and dropped visits still match.
void ReferenceTruncate(std::vector<PtVisit>& visits, const PtIp& ip) {
  for (size_t r = visits.size(); r-- > 0;) {
    PtVisit& visit = visits[r];
    if (visit.function == ip.function && visit.block == ip.block &&
        visit.first_index <= ip.index) {
      visit.last_index = std::min(visit.last_index, ip.index);
      for (size_t d = r + 1; d < visits.size(); ++d) {
        visits[d].first_index = 1;
        visits[d].last_index = 0;
      }
      return;
    }
  }
}

TEST(PgdRuleTest, ManyPgdsOnOneWalkerMatchReference) {
  // One thread walks the loop a random number of times; then a run of
  // random PGDs truncates its frozen visit list. The decode must equal the
  // reference rule applied to the PGD-free decode, and the summary walk
  // must equal the oracle.
  auto module = ParseModule(kCallLoopProgram);
  ASSERT_TRUE(module.ok()) << module.error().message();
  const FunctionId main_fn = (*module)->FindFunction("main");
  const BlockId loop = (*module)->function(main_fn).FindBlock("loop");
  const uint32_t num_blocks = static_cast<uint32_t>((*module)->function(main_fn).num_blocks());
  PtTraceSummarizer summarizer(**module);
  Rng rng(99);
  uint64_t dropped = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    PtBuffer buffer(1 << 16);
    buffer.AppendPsb();
    buffer.AppendPip(0);
    buffer.AppendPge(PtIp{main_fn, 0, 0});
    for (uint64_t turns = rng.NextBelow(6); turns > 0; --turns) {
      buffer.AppendTip(PtIp{main_fn, loop, 2});
      buffer.AppendTnt(0b1, 1);
    }
    const std::vector<uint8_t> walked = buffer.bytes();
    std::vector<PtVisit> expected = DecodePt(**module, 0, walked).trace.visits;
    for (uint64_t pgds = 1 + rng.NextBelow(6); pgds > 0; --pgds) {
      // Mostly main's blocks; sometimes leaf's, or an index past the block.
      const PtIp ip = rng.NextBelow(8) == 0
                          ? PtIp{0, 0, static_cast<uint32_t>(rng.NextBelow(2))}
                          : PtIp{main_fn, static_cast<BlockId>(rng.NextBelow(num_blocks)),
                                 static_cast<uint32_t>(rng.NextBelow(5))};
      buffer.AppendPgd(ip);
      ReferenceTruncate(expected, ip);
    }
    const PtDecodeResult result = DecodePt(**module, 0, buffer.bytes());
    ASSERT_TRUE(result.ok()) << result.error->Format();
    ASSERT_EQ(result.trace.visits.size(), expected.size()) << "trial " << trial;
    for (size_t i = 0; i < expected.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "trial " << trial << " visit " << i);
      EXPECT_EQ(result.trace.visits[i].block, expected[i].block);
      EXPECT_EQ(result.trace.visits[i].first_index, expected[i].first_index);
      EXPECT_EQ(result.trace.visits[i].last_index, expected[i].last_index);
      dropped += expected[i].first_index > expected[i].last_index ? 1 : 0;
    }
    ExpectSummaryMatchesOracle(summarizer, **module, {buffer.bytes()},
                               "trial " + std::to_string(trial));
  }
  EXPECT_GT(dropped, 100u);
}

// --- Hostile thread ids -------------------------------------------------------

// An 8-instruction module and a stream that names `threads` distinct thread
// ids, each resynced by a FUP: every id starts a walker.
struct ManyThreads {
  std::unique_ptr<Module> module;
  std::vector<uint8_t> stream;
};

ManyThreads MakeManyThreads(uint32_t threads) {
  ManyThreads out;
  auto module = ParseModule(R"(
func main() {
entry:
  r0 = const 1
  r1 = const 2
  r2 = add r0, r1
  r3 = add r2, r0
  r4 = add r3, r1
  r5 = add r4, r2
  r6 = add r5, r3
  ret
}
)");
  EXPECT_TRUE(module.ok()) << module.error().message();
  out.module = std::move(*module);
  PtBuffer buffer(size_t{16} * threads + 64);
  buffer.AppendPsb();
  for (uint32_t tid = 0; tid < threads; ++tid) {
    buffer.AppendPip(tid);
    buffer.AppendFup(PtIp{0, 0, 0});
  }
  out.stream = buffer.bytes();
  EXPECT_FALSE(buffer.overflowed());
  return out;
}

TEST(HostileThreadsTest, SmallStreamMatchesOracle) {
  const ManyThreads many = MakeManyThreads(2000);
  PtTraceSummarizer summarizer(*many.module);
  ExpectSummaryMatchesOracle(summarizer, *many.module, {many.stream}, "2000 threads");
  // Well under the budget, so the buffers stay for the next trace.
  EXPECT_GT(summarizer.scratch_bytes(), 0u);
  EXPECT_LE(summarizer.scratch_bytes(), PtTraceSummarizer::kRetainedBytes);
}

TEST(HostileThreadsTest, TwoHundredThousandThreadsStayLinear) {
  // Hashed walker and thread lookups and one shared dense array keep this
  // to a fraction of a second; a per-thread scan or a per-thread array of
  // num_instructions() would make it quadratic.
  constexpr uint32_t kThreads = 200000;
  const ManyThreads many = MakeManyThreads(kThreads);
  const size_t num_instrs = many.module->num_instructions();
  ASSERT_EQ(num_instrs, 8u);

  PtTraceSummarizer summarizer(*many.module);
  const PtTraceSummary summary = summarizer.Summarize({many.stream});
  ASSERT_TRUE(summary.cores[0].ok()) << summary.cores[0].error->Format();
  // The upload grew the visit log and the thread keys to megabytes; the
  // summarizer frees them rather than keep them for the next trace.
  EXPECT_LE(summarizer.scratch_bytes(), PtTraceSummarizer::kRetainedBytes);
  ASSERT_EQ(summary.positions.size(), size_t{kThreads} * num_instrs);
  for (size_t i = 0; i < summary.positions.size(); ++i) {
    // Sorted by (instr, tid); each thread ran the block once.
    EXPECT_EQ(summary.positions[i].instr, i / kThreads);
    EXPECT_EQ(summary.positions[i].tid, i % kThreads);
    EXPECT_EQ(summary.positions[i].pos, static_cast<int64_t>(i / kThreads));
    if (::testing::Test::HasFailure()) {
      break;
    }
  }
  EXPECT_TRUE(DigestPt(*many.module, many.stream).ok());

  // The same upload through the server's ingest path, on a server whose
  // clients' PT buffers are large enough to have produced it.
  GistOptions options;
  options.pt_buffer_bytes = many.stream.size();
  GistServer server(*many.module, options);
  FailureReport report;
  report.type = FailureType::kSegFault;
  report.failing_instr = 6;
  report.failing_thread = 0;
  server.ReportFailure(report);
  RunTrace trace;
  trace.run_id = 1;
  trace.failed = true;
  trace.failure = report;
  trace.pt_buffers = {many.stream};
  EXPECT_EQ(server.AddTrace(std::move(trace)), GistServer::TraceIngest::kAccepted);
  EXPECT_EQ(server.metrics().counter("pt.decode.materialized"), 0u);
}

TEST(HostileThreadsTest, PgdFloodOnOneWalkerStaysLinear) {
  // One walker records 200k visits, then 100k PGDs arrive for it. The
  // first stops it; the rest search its frozen visits through an index, so
  // a flood that mostly matches nothing costs O(1) per PGD instead of a scan
  // of every visit.
  auto module = ParseModule(kLoopProgram);
  ASSERT_TRUE(module.ok()) << module.error().message();
  const FunctionId main_fn = (*module)->FindFunction("main");
  const BlockId body = (*module)->function(main_fn).FindBlock("body");
  const BlockId done = (*module)->function(main_fn).FindBlock("done");
  PtBuffer buffer(size_t{4} << 20);
  buffer.AppendPsb();
  buffer.AppendPip(0);
  buffer.AppendPge(PtIp{main_fn, 0, 0});
  for (int packet = 0; packet < 100000 / 47; ++packet) {
    buffer.AppendLongTnt((uint64_t{1} << 47) - 1, 47);  // loop, loop, ...
  }
  for (uint32_t pgd = 0; pgd < 100000; ++pgd) {
    // done never ran: no visit matches, until the last PGD cuts into body.
    buffer.AppendPgd(pgd + 1 < 100000 ? PtIp{main_fn, done, pgd % 2} : PtIp{main_fn, body, 0});
  }
  ASSERT_FALSE(buffer.overflowed());
  const PtTraceSummary summary = SummarizePt(**module, {buffer.bytes()});
  ASSERT_TRUE(summary.cores[0].ok()) << summary.cores[0].error->Format();
  const PtDecodeResult decoded = DecodePt(**module, 0, buffer.bytes());
  ASSERT_TRUE(decoded.ok());
  // The last body visit ends at its first instruction; the loop visit after
  // it is dropped.
  ASSERT_GE(decoded.trace.visits.size(), 2u);
  const PtVisit& last = decoded.trace.visits.back();
  EXPECT_GT(last.first_index, last.last_index);
  const PtVisit& cut = decoded.trace.visits[decoded.trace.visits.size() - 2];
  EXPECT_EQ(cut.block, body);
  EXPECT_EQ(cut.last_index, 0u);
}

}  // namespace
}  // namespace gist
