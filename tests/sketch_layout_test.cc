// Sketch layout oracle (DESIGN.md §15). Sketch builds lay the reference run
// out from the per-thread positions its ingest-time summary recorded. The
// oracle below is the layout they replaced, kept test-local: decode every
// failing trace, pick the reference by window coverage, then decode-and-walk
// the reference's visits with one program-order counter per thread. Every
// sketch a fleet builds — not only the final one — must match it field for
// field on all 11 apps and a corpus subset, and hand-written visit lists pin
// the cases the walk has to get right: threads migrating across cores,
// PGD-truncated visits, a statement executed by two threads, repeated
// executions, and a failing thread PT never saw reach the failure point.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "src/apps/app.h"
#include "src/coop/fleet.h"
#include "src/core/sketch.h"
#include "src/corpus/corpus.h"
#include "src/ir/parser.h"
#include "src/pt/decoder.h"

namespace gist {
namespace {

// --- Oracle -----------------------------------------------------------------

std::optional<ScoredPredictor> FirstRanked(const std::vector<ScoredPredictor>& ranked,
                                           bool (*matches)(PredictorKind)) {
  for (const ScoredPredictor& entry : ranked) {
    if (matches(entry.predictor.kind)) {
      return entry;
    }
  }
  return std::nullopt;
}

// Statements involved in the best branch / value / value-range /
// concurrency predictor, by a scan of the full ranking per family.
std::set<InstrId> OracleHighlighted(const PredictorStats& stats) {
  const std::vector<ScoredPredictor> ranked = stats.Ranked();
  std::set<InstrId> highlighted;
  for (const auto& best :
       {FirstRanked(ranked, [](PredictorKind k) { return k == PredictorKind::kBranch; }),
        FirstRanked(ranked, [](PredictorKind k) { return k == PredictorKind::kValue; }),
        FirstRanked(ranked, [](PredictorKind k) { return k == PredictorKind::kValueSign; }),
        FirstRanked(ranked, &IsConcurrencyPredictor)}) {
    if (!best.has_value()) {
      continue;
    }
    for (InstrId id : {best->predictor.a, best->predictor.b, best->predictor.c}) {
      if (id != kNoInstr) {
        highlighted.insert(id);
      }
    }
  }
  return highlighted;
}

// The reference run among the decoded failing traces: most window coverage,
// then most watch events, then the latest trace. Returns an index into
// `traces`.
size_t OracleReference(const Module& module, const std::vector<InstrId>& window,
                       const std::vector<RunTrace>& traces,
                       const std::map<size_t, std::vector<DecodedCoreTrace>>& decoded) {
  std::optional<size_t> reference;
  size_t reference_coverage = 0;
  for (const auto& [index, cores] : decoded) {
    std::vector<const DecodedCoreTrace*> views;
    for (const DecodedCoreTrace& core : cores) {
      views.push_back(&core);
    }
    const InstrBitset executed = ExecutedInstrBits(module, views);
    std::set<InstrId> covered;
    for (InstrId id : window) {
      if (TestInstrBit(executed, id)) {
        covered.insert(id);
      }
    }
    const size_t coverage = covered.size();
    if (!reference.has_value() || coverage > reference_coverage ||
        (coverage == reference_coverage &&
         traces[index].watch_events.size() >= traces[*reference].watch_events.size())) {
      reference = index;
      reference_coverage = coverage;
    }
  }
  EXPECT_TRUE(reference.has_value());
  return reference.value_or(0);
}

struct OracleEntry {
  InstrId instr = kNoInstr;
  ThreadId tid = kNoThread;
  int64_t pos = -1;
  double anchor = 0.0;
  bool watched = false;
  std::optional<Word> value;
  bool discovered = false;
};

// The decode-and-walk layout of `reference`, from its decoded cores.
std::vector<SketchStatement> OracleLayout(const Module& module, const std::vector<InstrId>& window,
                                          const RunTrace& reference,
                                          const std::vector<DecodedCoreTrace>& cores,
                                          const std::vector<InstrId>& discovered_in,
                                          const PredictorStats& stats) {
  const FailureReport& failure = reference.failure;
  std::set<InstrId> executed;
  for (const DecodedCoreTrace& core : cores) {
    for (const PtVisit& visit : core.visits) {
      const auto& instrs = module.function(visit.function).block(visit.block).instructions();
      for (uint32_t i = visit.first_index; i <= visit.last_index && i < instrs.size(); ++i) {
        executed.insert(instrs[i].id);
      }
    }
  }
  std::set<InstrId> members;
  for (InstrId id : window) {
    if (executed.count(id) != 0 || id == failure.failing_instr) {
      members.insert(id);
    }
  }
  std::set<InstrId> discovered(discovered_in.begin(), discovered_in.end());
  for (const WatchEvent& event : reference.watch_events) {
    if (members.insert(event.instr).second) {
      discovered.insert(event.instr);
    }
  }
  members.insert(failure.failing_instr);

  std::map<std::pair<ThreadId, InstrId>, OracleEntry> entries;
  std::map<ThreadId, int64_t> thread_pos;
  for (const DecodedCoreTrace& core : cores) {
    for (const PtVisit& visit : core.visits) {
      if (visit.first_index > visit.last_index) {
        continue;
      }
      const auto& instrs = module.function(visit.function).block(visit.block).instructions();
      for (uint32_t i = visit.first_index; i <= visit.last_index && i < instrs.size(); ++i) {
        const int64_t pos = thread_pos[visit.tid]++;
        const InstrId id = instrs[i].id;
        if (members.count(id) != 0) {
          OracleEntry& entry = entries[{visit.tid, id}];
          entry.instr = id;
          entry.tid = visit.tid;
          entry.pos = pos;
        }
      }
    }
  }
  for (const WatchEvent& event : reference.watch_events) {
    OracleEntry& entry = entries[{event.tid, event.instr}];
    entry.instr = event.instr;
    entry.tid = event.tid;
    entry.watched = true;
    entry.anchor = static_cast<double>(event.seq);
    entry.value = event.value;
    entry.discovered = discovered.count(event.instr) != 0;
  }
  OracleEntry& failure_entry = entries[{failure.failing_thread, failure.failing_instr}];
  failure_entry.instr = failure.failing_instr;
  failure_entry.tid = failure.failing_thread;

  std::map<ThreadId, std::vector<OracleEntry*>> by_thread;
  for (auto& [key, entry] : entries) {
    by_thread[key.first].push_back(&entry);
  }
  for (auto& [tid, list] : by_thread) {
    std::sort(list.begin(), list.end(), [](const OracleEntry* a, const OracleEntry* b) {
      return a->pos != b->pos ? a->pos < b->pos : a->instr < b->instr;
    });
    double current = 0.0;
    int sub = 0;
    for (OracleEntry* entry : list) {
      if (entry->watched) {
        current = entry->anchor;
        sub = 0;
      } else {
        entry->anchor = current + 0.001 * (++sub);
      }
    }
  }
  std::vector<OracleEntry*> ordered;
  for (auto& [key, entry] : entries) {
    if (&entry != &failure_entry) {
      ordered.push_back(&entry);
    }
  }
  std::sort(ordered.begin(), ordered.end(), [](const OracleEntry* a, const OracleEntry* b) {
    if (a->anchor != b->anchor) {
      return a->anchor < b->anchor;
    }
    return a->tid != b->tid ? a->tid < b->tid : a->pos < b->pos;
  });
  ordered.push_back(&failure_entry);

  const std::set<InstrId> highlighted = OracleHighlighted(stats);
  std::vector<SketchStatement> statements;
  for (const OracleEntry* entry : ordered) {
    SketchStatement statement;
    statement.instr = entry->instr;
    statement.tid = entry->tid;
    statement.step = static_cast<uint32_t>(statements.size() + 1);
    statement.value = entry->value;
    statement.is_failure_point = entry == &failure_entry;
    statement.highlighted = highlighted.count(entry->instr) != 0;
    statement.discovered_at_runtime = entry->discovered;
    statements.push_back(statement);
  }
  return statements;
}

void ExpectSameStatements(const std::vector<SketchStatement>& got,
                          const std::vector<SketchStatement>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "statement " << i);
    EXPECT_EQ(got[i].instr, want[i].instr);
    EXPECT_EQ(got[i].tid, want[i].tid);
    EXPECT_EQ(got[i].step, want[i].step);
    EXPECT_EQ(got[i].value, want[i].value);
    EXPECT_EQ(got[i].is_failure_point, want[i].is_failure_point);
    EXPECT_EQ(got[i].highlighted, want[i].highlighted);
    EXPECT_EQ(got[i].discovered_at_runtime, want[i].discovered_at_runtime);
  }
}

// --- Fleets -----------------------------------------------------------------

// Checks every sketch one fleet builds against the oracle over the server's
// state at that build. Decodes are memoized per trace index: stored traces
// never change once accepted, and only failing ones can be the reference.
class FleetOracle {
 public:
  FleetOracle(const Module& module, const GistServer& server)
      : module_(module), server_(server) {}

  void Check(const FailureSketch& sketch) {
    const std::vector<RunTrace>& traces = server_.traces();
    for (; next_trace_ < traces.size(); ++next_trace_) {
      const RunTrace& trace = traces[next_trace_];
      if (!trace.failed) {
        continue;
      }
      std::vector<DecodedCoreTrace> cores;
      for (size_t core = 0; core < trace.pt_buffers.size(); ++core) {
        PtDecodeResult result =
            DecodePt(module_, static_cast<CoreId>(core), trace.pt_buffers[core]);
        ASSERT_TRUE(result.ok());
        cores.push_back(std::move(result.trace));
      }
      decoded_[next_trace_] = std::move(cores);
    }
    const std::vector<InstrId>& window = server_.plan().window;
    const size_t reference = OracleReference(module_, window, traces, decoded_);
    ExpectSameStatements(sketch.statements,
                         OracleLayout(module_, window, traces[reference], decoded_[reference],
                                      server_.discovered_instrs(), server_.behavior().stats()));
    ++checked_;
  }

  uint64_t checked() const { return checked_; }

 private:
  const Module& module_;
  const GistServer& server_;
  // Decoded failing traces by trace index.
  std::map<size_t, std::vector<DecodedCoreTrace>> decoded_;
  size_t next_trace_ = 0;
  uint64_t checked_ = 0;
};

// Runs one fleet, checking every sketch build; returns the builds checked.
uint64_t CheckFleet(const Module& module, const WorkloadGenerator& generator,
                    const std::vector<InstrId>& root_cause, FleetOptions options) {
  Fleet fleet(module, generator, options);
  FleetOracle oracle(module, fleet.server());
  const FleetResult result = fleet.Run([&](const FailureSketch& sketch) {
    oracle.Check(sketch);
    return std::all_of(root_cause.begin(), root_cause.end(),
                       [&](InstrId id) { return sketch.Contains(id); });
  });
  if (result.first_failure_found && !result.root_cause_found) {
    // The last build ran after the final iteration, outside the callback,
    // over the server's final state.
    oracle.Check(result.sketch);
  }
  const uint64_t builds = fleet.server().metrics().counter("stats.sketch_builds");
  EXPECT_EQ(oracle.checked(), builds);
  return builds;
}

FleetOptions BaseOptions(uint64_t fleet_seed) {
  FleetOptions options;
  options.runs_per_iteration = 200;
  options.max_iterations = 6;
  options.fleet_seed = fleet_seed;
  options.jobs = 2;
  return options;
}

class SketchLayoutTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_EQ(unsetenv("GIST_STATS_SHADOW"), 0); }
};

TEST_F(SketchLayoutTest, EverySketchMatchesOracleOnAllApps) {
  for (const auto& app : MakeAllApps()) {
    SCOPED_TRACE(app->info().name);
    FleetOptions options = BaseOptions(7);
    options.gist.title = app->info().name;
    // Shadow mode also CHECKs each reference's batch summary against the
    // ingest-time one.
    options.gist.stats_shadow = true;
    EXPECT_GT(CheckFleet(app->module(),
                         [&app](uint64_t run_index, Rng& rng) {
                           return app->MakeWorkload(run_index, rng);
                         },
                         app->root_cause_instrs(), options),
              0u);
  }
}

TEST_F(SketchLayoutTest, EverySketchMatchesOracleOnCorpusSubset) {
  CorpusOptions gen;
  gen.seed = 2015;
  gen.count = 20;
  const std::vector<GeneratedProgram> programs = GenerateCorpus(gen);
  ASSERT_EQ(programs.size(), 20u);
  uint64_t builds = 0;
  for (const GeneratedProgram& program : programs) {
    const CorpusManifest& manifest = program.manifest;
    SCOPED_TRACE(manifest.name);
    FleetOptions options = BaseOptions(DeriveSeed(2015, program.index));
    options.gist.title = manifest.name;
    builds += CheckFleet(
        *program.module,
        [&manifest](uint64_t run_index, Rng& rng) {
          return CorpusWorkload(manifest, run_index, rng);
        },
        manifest.root_cause, options);
  }
  EXPECT_GT(builds, 100u);
}

// --- Hand-written visit lists -----------------------------------------------

constexpr const char* kProgram = R"(
global g 1 0
func worker(1) {
entry:
  r1 = addrof g
  r2 = load r1
  r3 = add r2, r0
  store r1, r3
  ret
}
func main() {
entry:
  r0 = const 1
  r1 = spawn @worker(r0)
  r2 = addrof g
  r3 = load r2
  join r1
  r4 = const 0
  r5 = load r4
  ret
}
)";

class HandWrittenLayoutTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto parsed = ParseModule(kProgram);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message();
    module_ = std::move(*parsed);
    worker_ = module_->FindFunction("worker");
    main_ = module_->FindFunction("main");
    for (InstrId id = 0; id < module_->num_instructions(); ++id) {
      window_.push_back(id);
    }
  }

  InstrId Instr(FunctionId function, uint32_t index) const {
    return module_->function(function).block(0).instructions()[index].id;
  }

  static PtVisit Visit(ThreadId tid, FunctionId function, uint32_t first, uint32_t last) {
    PtVisit visit;
    visit.tid = tid;
    visit.function = function;
    visit.block = 0;
    visit.first_index = first;
    visit.last_index = last;
    return visit;
  }

  // A failing trace failing at `failing_instr` in thread `failing_thread`.
  static RunTrace Failing(InstrId failing_instr, ThreadId failing_thread) {
    RunTrace trace;
    trace.run_id = 1;
    trace.failed = true;
    trace.failure.type = FailureType::kSegFault;
    trace.failure.failing_instr = failing_instr;
    trace.failure.failing_thread = failing_thread;
    return trace;
  }

  // Builds the sketch from a summary of `cores` (the incremental path,
  // which decodes nothing), checks it against the oracle over the same
  // visits, and returns it.
  FailureSketch BuildAndCheck(const RunTrace& trace, const std::vector<DecodedCoreTrace>& cores,
                              const BehaviorStats& behavior) {
    std::vector<PtDecodeResult> decoded(cores.size());
    for (size_t i = 0; i < cores.size(); ++i) {
      decoded[i].trace = cores[i];
    }
    const std::vector<FailingTraceSummary> summaries = {
        SummarizeFailingTrace(*module_, 0, decoded)};
    SketchOptions options;
    options.behavior = &behavior;
    options.failing_summaries = &summaries;
    Result<FailureSketch> sketch = BuildFailureSketch(*module_, window_, {trace}, options);
    EXPECT_TRUE(sketch.ok());
    if (!sketch.ok()) {
      return FailureSketch{};
    }
    EXPECT_EQ(sketch->pt_decodes, 0u);
    ExpectSameStatements(sketch->statements,
                         OracleLayout(*module_, window_, trace, cores, {}, behavior.stats()));
    return *sketch;
  }

  static std::vector<std::pair<InstrId, ThreadId>> Order(const FailureSketch& sketch) {
    std::vector<std::pair<InstrId, ThreadId>> order;
    for (const SketchStatement& statement : sketch.statements) {
      order.emplace_back(statement.instr, statement.tid);
    }
    return order;
  }

  std::unique_ptr<Module> module_;
  FunctionId worker_ = kNoFunction;
  FunctionId main_ = kNoFunction;
  std::vector<InstrId> window_;
  BehaviorStats no_stats_;
};

TEST_F(HandWrittenLayoutTest, ThreadCountsRunAcrossCoresInCoreOrder) {
  // Thread 1 runs worker[0..3] on core 0, then migrates to core 1 for
  // worker[4]. Thread 0 runs main on core 1 before and after.
  DecodedCoreTrace core0;
  core0.core = 0;
  core0.visits = {Visit(1, worker_, 0, 3)};
  DecodedCoreTrace core1;
  core1.core = 1;
  core1.visits = {Visit(0, main_, 0, 1), Visit(1, worker_, 4, 4), Visit(0, main_, 2, 6)};
  const RunTrace trace = Failing(Instr(main_, 6), 0);

  std::vector<PtDecodeResult> decoded(2);
  decoded[0].trace = core0;
  decoded[1].trace = core1;
  const FailingTraceSummary summary = SummarizeFailingTrace(*module_, 3, decoded);
  EXPECT_EQ(summary.trace_index, 3u);
  // Thread 1's counter carries across cores: worker[4] is its 5th
  // instruction, not core 1's 3rd. Thread 0's counter skips thread 1.
  const auto position = [&](InstrId instr, ThreadId tid) -> int64_t {
    for (const ExecutedPosition& entry : summary.positions) {
      if (entry.instr == instr && entry.tid == tid) {
        return entry.pos;
      }
    }
    return -1;
  };
  EXPECT_EQ(position(Instr(worker_, 3), 1), 3);
  EXPECT_EQ(position(Instr(worker_, 4), 1), 4);
  EXPECT_EQ(position(Instr(main_, 2), 0), 2);
  EXPECT_EQ(position(Instr(main_, 6), 0), 6);
  EXPECT_TRUE(std::is_sorted(summary.positions.begin(), summary.positions.end(),
                             [](const ExecutedPosition& a, const ExecutedPosition& b) {
                               return a.instr != b.instr ? a.instr < b.instr : a.tid < b.tid;
                             }));
  EXPECT_EQ(summary.positions.size(), 12u);

  // Thread 1's statements stay in its program order across the migration.
  const FailureSketch sketch = BuildAndCheck(trace, {core0, core1}, no_stats_);
  const auto order = Order(sketch);
  const auto at = [&](InstrId instr, ThreadId tid) {
    return std::find(order.begin(), order.end(), std::make_pair(instr, tid)) - order.begin();
  };
  EXPECT_LT(at(Instr(worker_, 3), 1), at(Instr(worker_, 4), 1));
  EXPECT_TRUE(sketch.statements.back().is_failure_point);
}

TEST_F(HandWrittenLayoutTest, TruncatedVisitAdvancesNothing) {
  // A PGD-emptied visit (first > last) between two real ones executes
  // nothing: it neither marks worker[2..4] executed nor moves the counter.
  DecodedCoreTrace core0;
  core0.visits = {Visit(0, main_, 0, 2), Visit(1, worker_, 1, 0), Visit(0, main_, 3, 6),
                  Visit(1, worker_, 0, 1)};
  const RunTrace trace = Failing(Instr(main_, 6), 0);
  const FailureSketch sketch = BuildAndCheck(trace, {core0}, no_stats_);
  EXPECT_FALSE(sketch.Contains(Instr(worker_, 2)));
  EXPECT_FALSE(sketch.Contains(Instr(worker_, 4)));
  EXPECT_TRUE(sketch.Contains(Instr(worker_, 1)));
  EXPECT_EQ(sketch.threads, (std::vector<ThreadId>{0, 1}));
}

TEST_F(HandWrittenLayoutTest, MemberExecutedByBothThreads) {
  // Two workers run the same statements; each (statement, thread) pair is its
  // own row, and a watch event anchors one thread's rows in global order.
  DecodedCoreTrace core0;
  core0.visits = {Visit(0, main_, 0, 4), Visit(1, worker_, 0, 4)};
  DecodedCoreTrace core1;
  core1.visits = {Visit(2, worker_, 0, 4), Visit(0, main_, 5, 6)};
  RunTrace trace = Failing(Instr(main_, 6), 0);
  WatchEvent write;
  write.seq = 5;
  write.tid = 2;
  write.instr = Instr(worker_, 3);
  write.value = 2;
  write.is_write = true;
  trace.watch_events = {write};
  const FailureSketch sketch = BuildAndCheck(trace, {core0, core1}, no_stats_);
  const auto order = Order(sketch);
  for (ThreadId tid : {1u, 2u}) {
    EXPECT_NE(std::find(order.begin(), order.end(), std::make_pair(Instr(worker_, 1), tid)),
              order.end());
  }
  EXPECT_EQ(sketch.threads, (std::vector<ThreadId>{0, 1, 2}));
}

TEST_F(HandWrittenLayoutTest, RepeatedExecutionKeepsLastPosition) {
  // Thread 1 runs worker[1] twice with worker[2..3] between: the last
  // execution decides its place, after worker[3].
  DecodedCoreTrace core0;
  core0.visits = {Visit(1, worker_, 0, 3), Visit(1, worker_, 1, 1), Visit(0, main_, 0, 6)};
  const RunTrace trace = Failing(Instr(main_, 6), 0);
  const FailureSketch sketch = BuildAndCheck(trace, {core0}, no_stats_);
  const auto order = Order(sketch);
  const auto at = [&](InstrId instr) {
    return std::find(order.begin(), order.end(), std::make_pair(instr, ThreadId{1})) -
           order.begin();
  };
  EXPECT_LT(at(Instr(worker_, 3)), at(Instr(worker_, 1)));
}

TEST_F(HandWrittenLayoutTest, FailingThreadNeverReachedFailurePointInPt) {
  // PT stopped in thread 0 before main[6]; thread 1 never ran it at all. The
  // failure point is still the last row, attributed to the failing thread.
  DecodedCoreTrace core0;
  core0.visits = {Visit(0, main_, 0, 3), Visit(1, worker_, 0, 4)};
  const RunTrace trace = Failing(Instr(main_, 6), 0);
  const FailureSketch sketch = BuildAndCheck(trace, {core0}, no_stats_);
  ASSERT_FALSE(sketch.statements.empty());
  const SketchStatement& last = sketch.statements.back();
  EXPECT_TRUE(last.is_failure_point);
  EXPECT_EQ(last.instr, Instr(main_, 6));
  EXPECT_EQ(last.tid, 0u);
  EXPECT_FALSE(sketch.Contains(Instr(main_, 5)));
}

TEST_F(HandWrittenLayoutTest, HighlightsComeFromTheRankingLeaders) {
  // Highlighting reads the same leaders the oracle finds by scanning the
  // ranking family by family.
  BehaviorStats behavior;
  Predictor value;
  value.kind = PredictorKind::kValue;
  value.a = Instr(worker_, 1);
  value.value = 0;
  Predictor pattern;
  pattern.kind = PredictorKind::kWR;
  pattern.a = Instr(worker_, 3);
  pattern.b = Instr(main_, 3);
  behavior.RecordRun(1, {value, pattern}, true);
  behavior.RecordRun(2, {value}, false);
  DecodedCoreTrace core0;
  core0.visits = {Visit(0, main_, 0, 6), Visit(1, worker_, 0, 4)};
  const RunTrace trace = Failing(Instr(main_, 6), 0);
  const FailureSketch sketch = BuildAndCheck(trace, {core0}, behavior);
  const size_t highlighted =
      std::count_if(sketch.statements.begin(), sketch.statements.end(),
                    [](const SketchStatement& statement) { return statement.highlighted; });
  EXPECT_EQ(highlighted, 3u);
}

}  // namespace
}  // namespace gist
