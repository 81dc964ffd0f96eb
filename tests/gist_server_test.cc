// GistServer unit tests: target registration, plan lifecycle across AsT
// iterations, refinement-into-slice semantics, option plumbing, and what
// ingest admits and keeps: upload bounds, run-identity dedup, and trace
// retention only in shadow mode.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/coop/wire.h"
#include "src/core/gist.h"
#include "src/ir/parser.h"
#include "src/pt/decoder.h"

namespace gist {
namespace {

constexpr const char* kProgram = R"(
global flag 1 0
func setter(1) {
entry:
  r1 = addrof flag
  store r1, r0
  ret
}
func main() {
entry:
  r0 = const 1
  r1 = spawn @setter(r0)
  join r1
  r2 = addrof flag
  r3 = load r2
  br r3, ^boom, ^fine
boom:
  r4 = const 0
  r5 = load r4
  ret
fine:
  ret
}
)";

class GistServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto parsed = ParseModule(kProgram);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message();
    module_ = std::move(*parsed);
    Vm vm(*module_, Workload{}, VmOptions{});
    RunResult result = vm.Run();
    ASSERT_FALSE(result.ok());
    report_ = result.failure;
  }

  std::unique_ptr<Module> module_;
  FailureReport report_;
};

TEST_F(GistServerTest, NoTargetBeforeReport) {
  GistServer server(*module_);
  EXPECT_FALSE(server.HasTarget());
}

TEST_F(GistServerTest, ReportEstablishesSliceAndPlan) {
  GistServer server(*module_);
  server.ReportFailure(report_);
  ASSERT_TRUE(server.HasTarget());
  EXPECT_GT(server.slice().instrs.size(), 0u);
  EXPECT_EQ(server.slice().instrs[0], report_.failing_instr);
  EXPECT_EQ(server.sigma(), kDefaultInitialSigma);
  EXPECT_EQ(server.ast_iteration(), 0u);
  EXPECT_GT(server.plan().site_count(), 0u);
}

TEST_F(GistServerTest, InitialSigmaOptionHonoured) {
  GistOptions options;
  options.initial_sigma = 6;
  GistServer server(*module_, options);
  server.ReportFailure(report_);
  EXPECT_EQ(server.sigma(), 6u);
  EXPECT_EQ(server.plan().window.size(), std::min<size_t>(6, server.slice().instrs.size()));
}

TEST_F(GistServerTest, AdvanceGrowsWindowUntilExhaustion) {
  GistServer server(*module_);
  server.ReportFailure(report_);
  size_t previous = server.plan().window.size();
  int guard = 0;
  while (!server.ExhaustedSlice()) {
    server.AdvanceAst();
    EXPECT_GE(server.plan().window.size(), previous);
    previous = server.plan().window.size();
    ASSERT_LT(++guard, 32) << "AsT failed to exhaust a finite slice";
  }
  EXPECT_EQ(server.plan().window.size(), server.slice().instrs.size());
}

TEST_F(GistServerTest, LinearGrowthOptionHonoured) {
  GistOptions options;
  options.initial_sigma = 2;
  options.ast_growth = AstGrowth::kLinear;
  GistServer server(*module_, options);
  server.ReportFailure(report_);
  server.AdvanceAst();
  EXPECT_EQ(server.sigma(), 4u);
  server.AdvanceAst();
  EXPECT_EQ(server.sigma(), 6u);  // +2 per step, not doubling
}

TEST_F(GistServerTest, RefinementAddsDiscoveredStatementsToPlans) {
  GistServer server(*module_);
  server.ReportFailure(report_);
  while (!server.ExhaustedSlice()) {
    server.AdvanceAst();
  }
  ASSERT_TRUE(server.discovered_instrs().empty());

  // A monitored failing run traps setter's store (outside the static slice).
  MonitoredRun run = RunMonitored(*module_, server.plan(), Workload{}, GistOptions{}, 1);
  ASSERT_FALSE(run.result.ok());
  server.AddTrace(std::move(run.trace));

  ASSERT_FALSE(server.discovered_instrs().empty());
  // Every discovered statement is now part of the plan's window...
  for (InstrId id : server.discovered_instrs()) {
    EXPECT_FALSE(server.slice().Contains(id));
    EXPECT_TRUE(std::find(server.plan().window.begin(), server.plan().window.end(), id) !=
                server.plan().window.end());
  }
  // ...and keeps its place after further AsT advances.
  server.AdvanceAst();
  for (InstrId id : server.discovered_instrs()) {
    EXPECT_TRUE(std::find(server.plan().window.begin(), server.plan().window.end(), id) !=
                server.plan().window.end());
  }
}

TEST_F(GistServerTest, SuccessfulTracesCountWithoutBeingRetained) {
  GistServer server(*module_);
  server.ReportFailure(report_);
  RunTrace successful;
  successful.failed = false;
  EXPECT_EQ(server.AddTrace(std::move(successful)), GistServer::TraceIngest::kAccepted);
  EXPECT_EQ(server.behavior().runs_recorded(), 1u);
  EXPECT_EQ(server.trace_count(), 0u);
  EXPECT_EQ(server.failure_recurrences(), 0u);
}

TEST_F(GistServerTest, ReportResetsState) {
  GistOptions options;
  options.stats_shadow = true;  // so there are retained traces to drop
  GistServer server(*module_, options);
  server.ReportFailure(report_);
  MonitoredRun run = RunMonitored(*module_, server.plan(), Workload{}, GistOptions{}, 1);
  server.AddTrace(std::move(run.trace));
  server.AdvanceAst();
  ASSERT_EQ(server.trace_count(), 1u);
  ASSERT_EQ(server.behavior().runs_recorded(), 1u);
  ASSERT_TRUE(server.BuildSketch().ok());

  server.ReportFailure(report_);  // re-target
  EXPECT_EQ(server.trace_count(), 0u);
  EXPECT_EQ(server.behavior().runs_recorded(), 0u);
  EXPECT_EQ(server.failure_recurrences(), 0u);
  EXPECT_EQ(server.ast_iteration(), 0u);
  EXPECT_TRUE(server.discovered_instrs().empty());
  // The failing-trace summaries went too.
  EXPECT_FALSE(server.BuildSketch().ok());
}

TEST_F(GistServerTest, ReportResetsQuarantineCount) {
  GistServer server(*module_);
  server.ReportFailure(report_);
  MonitoredRun run = RunMonitored(*module_, server.plan(), Workload{}, GistOptions{}, 1);
  RunTrace hostile = run.trace;
  WatchEvent bogus;
  bogus.instr = 999999;
  hostile.watch_events.push_back(bogus);
  ASSERT_EQ(server.AddTrace(std::move(hostile)), GistServer::TraceIngest::kQuarantined);
  ASSERT_EQ(server.CampaignState().quarantined, 1u);

  server.ReportFailure(report_);  // re-target
  EXPECT_EQ(server.quarantined_traces(), 0u);
  EXPECT_EQ(server.CampaignState().quarantined, 0u);
  ASSERT_EQ(server.AddTrace(std::move(run.trace)), GistServer::TraceIngest::kAccepted);
  Result<FailureSketch> sketch = server.BuildSketch();
  ASSERT_TRUE(sketch.ok());
  EXPECT_EQ(sketch->quarantined_traces, 0u);
}

TEST_F(GistServerTest, ReshippedRunIsDroppedBeforeItCounts) {
  GistServer server(*module_);
  server.ReportFailure(report_);
  MonitoredRun run = RunMonitored(*module_, server.plan(), Workload{}, GistOptions{}, 7);
  ASSERT_FALSE(run.result.ok());
  RunTrace again = run.trace;
  ASSERT_EQ(server.AddTrace(std::move(run.trace)), GistServer::TraceIngest::kAccepted);
  const std::vector<InstrId> discovered = server.discovered_instrs();
  const uint64_t plan_version = server.plan_version();
  Result<FailureSketch> before = server.BuildSketch();
  ASSERT_TRUE(before.ok());

  // The re-shipped copy also carries a watch event on a statement outside
  // the slice: were it ingested, it would refine the slice and, with more
  // watch events at equal coverage, become the reference run.
  InstrId outside = kNoInstr;
  for (InstrId id = 0; id < module_->num_instructions() && outside == kNoInstr; ++id) {
    if (!server.slice().Contains(id) &&
        std::find(discovered.begin(), discovered.end(), id) == discovered.end()) {
      outside = id;
    }
  }
  ASSERT_NE(outside, kNoInstr);
  WatchEvent extra;
  extra.seq = 1;
  extra.tid = 0;
  extra.instr = outside;
  again.watch_events.push_back(extra);
  EXPECT_EQ(server.AddTrace(std::move(again)), GistServer::TraceIngest::kDuplicate);

  EXPECT_EQ(server.failure_recurrences(), 1u);
  EXPECT_EQ(server.behavior().runs_recorded(), 1u);
  EXPECT_EQ(server.behavior().duplicates_ignored(), 1u);
  EXPECT_EQ(server.metrics().counter("server.traces.accepted"), 1u);
  EXPECT_EQ(server.metrics().counter("server.failure_recurrences"), 1u);
  EXPECT_EQ(server.discovered_instrs(), discovered);
  EXPECT_EQ(server.plan_version(), plan_version);
  Result<FailureSketch> after = server.BuildSketch();
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->Contains(outside));
  EXPECT_EQ(RenderFailureSketch(*module_, *after), RenderFailureSketch(*module_, *before));
}

// A two-core client's failing upload, and a server bounded to exactly what
// such a client can ship: two streams, none longer than its longest one.
class UploadBoundTest : public GistServerTest {
 protected:
  void SetUp() override {
    GistServerTest::SetUp();
    GistOptions client;
    client.num_cores = 2;
    GistServer planner(*module_, client);
    planner.ReportFailure(report_);
    MonitoredRun run = RunMonitored(*module_, planner.plan(), Workload{}, client, 1);
    ASSERT_FALSE(run.result.ok());
    upload_ = std::move(run.trace);
    ASSERT_EQ(upload_.pt_buffers.size(), 2u);
    options_.num_cores = 2;
    options_.pt_buffer_bytes = std::max(upload_.pt_buffers[0].size(), upload_.pt_buffers[1].size());
    ASSERT_GT(options_.pt_buffer_bytes, 0u);
  }

  // The index of the longest stream.
  size_t Longest() const {
    return upload_.pt_buffers[0].size() >= upload_.pt_buffers[1].size() ? 0 : 1;
  }

  // Ingests `trace` into a fresh server; returns the disposition and, for a
  // quarantine, checks that no stream was walked.
  GistServer::TraceIngest Ingest(RunTrace trace) {
    GistServer server(*module_, options_);
    server.ReportFailure(report_);
    const GistServer::TraceIngest ingest = server.AddTrace(std::move(trace));
    if (ingest == GistServer::TraceIngest::kQuarantined) {
      EXPECT_EQ(server.quarantined_traces(), 1u);
      EXPECT_EQ(server.metrics().counter("server.traces.quarantined"), 1u);
      EXPECT_EQ(server.metrics().counter("pt.decode.walks"), 0u);
      EXPECT_EQ(server.failure_recurrences(), 0u);
    }
    return ingest;
  }

  RunTrace upload_;
  GistOptions options_;
};

TEST_F(UploadBoundTest, StreamExactlyAtTheBufferSizeIsAccepted) {
  EXPECT_EQ(Ingest(upload_), GistServer::TraceIngest::kAccepted);
}

TEST_F(UploadBoundTest, StreamOneByteOverTheBufferSizeIsQuarantined) {
  RunTrace over = upload_;
  std::vector<uint8_t>& stream = over.pt_buffers[Longest()];
  stream.push_back(0x00);  // a PAD packet: the stream still decodes
  ASSERT_TRUE(DigestPt(*module_, stream).ok());
  EXPECT_EQ(Ingest(std::move(over)), GistServer::TraceIngest::kQuarantined);
}

TEST_F(UploadBoundTest, MoreStreamsThanCoresIsQuarantined) {
  RunTrace extra = upload_;
  extra.pt_buffers.emplace_back();  // an empty stream decodes too
  EXPECT_EQ(Ingest(std::move(extra)), GistServer::TraceIngest::kQuarantined);
}

TEST_F(GistServerTest, RetainsTracesOnlyInShadowMode) {
  // 10^4 accepted uploads, half failing: the server keeps their statistics
  // and failing summaries either way, and the traces themselves only for
  // the shadow check.
  constexpr uint64_t kUploads = 10000;
  std::string renders[2];
  for (const bool shadow : {false, true}) {
    SCOPED_TRACE(shadow ? "shadow on" : "shadow off");
    GistOptions options;
    options.stats_shadow = shadow;
    GistServer server(*module_, options);
    server.ReportFailure(report_);
    MonitoredRun run = RunMonitored(*module_, server.plan(), Workload{}, options, 0);
    ASSERT_FALSE(run.result.ok());
    uint64_t accepted = 0;
    for (uint64_t run_id = 1; run_id <= kUploads; ++run_id) {
      RunTrace trace = run.trace;
      trace.run_id = run_id;
      trace.failed = run_id % 2 == 0;
      accepted += server.AddTrace(std::move(trace)) == GistServer::TraceIngest::kAccepted;
    }
    ASSERT_EQ(accepted, kUploads);
    EXPECT_EQ(server.trace_count(), shadow ? accepted : 0u);
    EXPECT_EQ(server.behavior().runs_recorded(), kUploads);
    EXPECT_EQ(server.failure_recurrences(), kUploads / 2);
    Result<FailureSketch> sketch = server.BuildSketch();
    ASSERT_TRUE(sketch.ok());
    renders[shadow] = RenderFailureSketch(*module_, *sketch);
  }
  EXPECT_EQ(renders[0], renders[1]);
}

// Fills a two-core server with three failing traces.
void AddThreeFailingRuns(const Module& module, const GistOptions& options, GistServer* server) {
  for (uint64_t run_id = 1; run_id <= 3; ++run_id) {
    MonitoredRun run = RunMonitored(module, server->plan(), Workload{}, options, run_id);
    ASSERT_FALSE(run.result.ok());
    ASSERT_EQ(run.trace.pt_buffers.size(), 2u);
    ASSERT_EQ(server->AddTrace(std::move(run.trace)), GistServer::TraceIngest::kAccepted);
  }
  ASSERT_EQ(server->failure_recurrences(), 3u);
}

TEST_F(GistServerTest, SketchBuildDecodesNothing) {
  GistOptions options;
  options.num_cores = 2;
  GistServer server(*module_, options);
  server.ReportFailure(report_);
  ASSERT_NO_FATAL_FAILURE(AddThreeFailingRuns(*module_, options, &server));
  for (uint64_t build = 1; build <= 2; ++build) {
    Result<FailureSketch> sketch = server.BuildSketch();
    ASSERT_TRUE(sketch.ok());
    // The reference run's layout comes from its ingest-time summary.
    EXPECT_EQ(sketch->pt_decodes, 0u);
    EXPECT_EQ(server.metrics().counter("stats.sketch_pt_decodes"), 0u);
  }
  EXPECT_EQ(server.metrics().counter("stats.sketch_builds"), 2u);
}

TEST_F(GistServerTest, ShadowSketchBuildDecodesOnlyTheBatchPass) {
  GistOptions options;
  options.num_cores = 2;
  options.stats_shadow = true;
  GistServer server(*module_, options);
  server.ReportFailure(report_);
  ASSERT_NO_FATAL_FAILURE(AddThreeFailingRuns(*module_, options, &server));
  for (uint64_t build = 1; build <= 2; ++build) {
    Result<FailureSketch> sketch = server.BuildSketch();
    ASSERT_TRUE(sketch.ok());
    // The batch recompute decodes every core of every stored trace once;
    // the layout adds nothing on top.
    EXPECT_EQ(sketch->pt_decodes, 3u * 2u);
    EXPECT_EQ(server.metrics().counter("stats.sketch_pt_decodes"), 3u * 2u * build);
  }
}

TEST_F(GistServerTest, WatchEventWithUnknownInstructionIsQuarantined) {
  GistServer server(*module_);
  server.ReportFailure(report_);
  MonitoredRun run = RunMonitored(*module_, server.plan(), Workload{}, GistOptions{}, 1);
  ASSERT_FALSE(run.result.ok());

  // A well-formed upload whose watch log names an instruction the module
  // does not have: the wire accepts it, the server must not.
  RunTrace hostile = run.trace;
  WatchEvent bogus;
  bogus.seq = 1;
  bogus.tid = 0;
  bogus.instr = 999999;
  hostile.watch_events.push_back(bogus);
  Result<RunTrace> shipped = DeserializeRunTrace(SerializeRunTrace(hostile));
  ASSERT_TRUE(shipped.ok()) << shipped.error().message();
  EXPECT_EQ(server.AddTrace(std::move(*shipped)), GistServer::TraceIngest::kQuarantined);
  EXPECT_EQ(server.quarantined_traces(), 1u);
  EXPECT_EQ(server.metrics().counter("server.traces.quarantined"), 1u);
  EXPECT_EQ(server.trace_count(), 0u);
  EXPECT_EQ(server.failure_recurrences(), 0u);
  EXPECT_TRUE(server.discovered_instrs().empty());
  EXPECT_FALSE(server.BuildSketch().ok());

  // The intact upload of the same run is still accepted and sketched.
  EXPECT_EQ(server.AddTrace(std::move(run.trace)), GistServer::TraceIngest::kAccepted);
  EXPECT_EQ(server.failure_recurrences(), 1u);
  EXPECT_TRUE(server.BuildSketch().ok());
}

TEST_F(GistServerTest, BuildSketchWithoutTracesErrors) {
  GistServer server(*module_);
  server.ReportFailure(report_);
  Result<FailureSketch> sketch = server.BuildSketch();
  EXPECT_FALSE(sketch.ok());
}

}  // namespace
}  // namespace gist
