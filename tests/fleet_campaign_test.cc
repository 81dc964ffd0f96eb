// Campaign-observatory determinism contract (DESIGN.md §14):
//   1. the gist.campaign.v1 journal is byte-identical for every worker
//      count and execution tier, chaos on or off — the tracker only sees
//      coordinator-merged, run-index-ordered state;
//   2. the streaming (incremental) BehaviorStats aggregation is byte-
//      identical to a batch recompute over the stored traces, on every
//      bundled app and on a synthesized corpus subset — checked both by
//      shadow mode (the in-build CHECK) and by direct fingerprint equality.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/coop/fleet.h"
#include "src/corpus/corpus.h"
#include "src/corpus/score.h"
#include "src/obs/campaign.h"

namespace gist {
namespace {

FleetOptions BaseOptions(uint64_t fleet_seed, uint32_t jobs) {
  FleetOptions options;
  options.runs_per_iteration = 400;
  options.max_iterations = 8;
  options.fleet_seed = fleet_seed;
  options.jobs = jobs;
  return options;
}

// Same moderate attrition profile as the chaos suite: every fault class
// fires, quorum holds.
FaultOptions ModerateFaults() {
  FaultOptions faults;
  faults.enabled = true;
  faults.kill_permille = 40;
  faults.truncate_pt_permille = 30;
  faults.corrupt_pt_permille = 30;
  faults.drop_wire_permille = 30;
  faults.reorder_wire_permille = 150;
  faults.exhaust_watchpoints_permille = 40;
  faults.delay_result_permille = 50;
  faults.wire_mtu_bytes = 512;
  return faults;
}

struct CampaignFleet {
  FleetResult result;
  std::string journal;
  std::string sketch_render;
  std::string behavior_fingerprint;
  std::string batch_fingerprint;
  std::string batch_render;
};

CampaignFleet RunCampaignFleet(const BugApp& app, FleetOptions options) {
  CampaignTracker tracker(app.info().name);
  options.campaign = &tracker;
  options.gist.title = app.info().name;
  Fleet fleet(
      app.module(),
      [&app](uint64_t run_index, Rng& rng) { return app.MakeWorkload(run_index, rng); },
      options);
  const std::vector<InstrId>& root_cause = app.root_cause_instrs();
  CampaignFleet out;
  out.result = fleet.Run([&](const FailureSketch& sketch) {
    for (InstrId id : root_cause) {
      if (!sketch.Contains(id)) {
        return false;
      }
    }
    return true;
  });
  out.journal = tracker.JournalJson();
  out.sketch_render = RenderFailureSketch(app.module(), out.result.sketch);
  out.behavior_fingerprint = fleet.server().behavior().Fingerprint();

  // Batch recompute, bypassing the server's streaming aggregation entirely:
  // rebuild the final sketch from the traces the server retains in shadow
  // mode, with no BehaviorStats attached. Must agree with the incremental
  // result byte for byte.
  const GistServer& server = fleet.server();
  SketchOptions batch_options;
  batch_options.title = app.info().name;
  batch_options.discovered = &server.discovered_instrs();
  batch_options.quarantined = server.quarantined_traces();
  Result<FailureSketch> batch =
      BuildFailureSketch(app.module(), server.plan().window, server.traces(), batch_options);
  if (batch.ok()) {
    out.batch_render = RenderFailureSketch(app.module(), *batch);
  }
  BehaviorStats replay;
  for (const RunTrace& trace : server.traces()) {
    // Server-accepted traces are guaranteed decodable (ingest validation).
    // Full decodes, not ingest's digests: the replay must not share the path
    // it checks.
    std::vector<std::vector<uint64_t>> keys;
    for (size_t core = 0; core < trace.pt_buffers.size(); ++core) {
      keys.push_back(PtBranchKeys(
          DecodePt(app.module(), static_cast<CoreId>(core), trace.pt_buffers[core]).trace));
    }
    replay.RecordRun(trace.run_id,
                     ExtractPredictors(
                         std::vector<std::span<const uint64_t>>(keys.begin(), keys.end()),
                         trace.watch_events),
                     trace.failed);
  }
  out.batch_fingerprint = replay.Fingerprint();
  return out;
}

TEST(FleetCampaignTest, JournalBitIdenticalAcrossJobsAndTiers) {
  std::unique_ptr<BugApp> app = MakeAppByName("apache-2");
  ASSERT_NE(app, nullptr);
  for (const bool faulted : {false, true}) {
    SCOPED_TRACE(faulted ? "chaos on" : "chaos off");
    FleetOptions base = BaseOptions(2015, /*jobs=*/1);
    if (faulted) {
      base.faults = ModerateFaults();
    }
    const CampaignFleet sequential = RunCampaignFleet(*app, base);
    ASSERT_FALSE(sequential.journal.empty());
    EXPECT_NE(sequential.journal.find("\"schema\": \"gist.campaign.v1\""), std::string::npos);

    for (const uint32_t jobs : {2u, 8u}) {
      for (const ExecTier tier : {ExecTier::kFast, ExecTier::kReference}) {
        FleetOptions variant = base;
        variant.jobs = jobs;
        variant.gist.tier = tier;
        SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                     " tier=" + std::to_string(static_cast<int>(tier)));
        const CampaignFleet other = RunCampaignFleet(*app, variant);
        EXPECT_EQ(sequential.journal, other.journal);
        EXPECT_EQ(sequential.sketch_render, other.sketch_render);
      }
    }
  }
}

TEST(FleetCampaignTest, JournalCarriesConvergenceSignals) {
  std::unique_ptr<BugApp> app = MakeAppByName("apache-2");
  ASSERT_NE(app, nullptr);
  CampaignTracker tracker(app->info().name);
  FleetOptions options = BaseOptions(2015, /*jobs=*/2);
  options.campaign = &tracker;
  Fleet fleet(
      app->module(),
      [&app](uint64_t run_index, Rng& rng) { return app->MakeWorkload(run_index, rng); },
      options);
  const std::vector<InstrId>& root_cause = app->root_cause_instrs();
  const FleetResult result = fleet.Run([&](const FailureSketch& sketch) {
    for (InstrId id : root_cause) {
      if (!sketch.Contains(id)) {
        return false;
      }
    }
    return true;
  });
  ASSERT_TRUE(result.root_cause_found);
  ASSERT_EQ(tracker.iterations(), result.iterations.size());
  EXPECT_GT(tracker.now(), 0u);
  EXPECT_EQ(tracker.trend(), "converged");
  EXPECT_EQ(tracker.eta_bucket(), "done");
  const CampaignTracker::Record& last = tracker.records().back();
  EXPECT_TRUE(last.sample.root_cause_found);
  EXPECT_FALSE(last.sample.sketch_statements.empty());
  EXPECT_FALSE(last.sample.top_predictors.empty());
  EXPECT_GT(last.runs_consumed, 0u);
  // Virtual clocks are cumulative and monotone across iterations.
  uint64_t previous_end = 0;
  for (const CampaignTracker::Record& record : tracker.records()) {
    EXPECT_GE(record.sample.virtual_end, previous_end);
    previous_end = record.sample.virtual_end;
  }
  const std::string journal = tracker.JournalJson();
  EXPECT_NE(journal.find("\"trend\": \"converged\""), std::string::npos);
  EXPECT_NE(journal.find("\"eta_bucket\": \"done\""), std::string::npos);
}

TEST(FleetCampaignTest, IncrementalMatchesBatchOnAllApps) {
  // Shadow mode re-runs the batch aggregation inside every sketch build and
  // CHECK-fails on any divergence; on top of that, compare the streaming
  // fingerprint and final sketch against an out-of-band batch rebuild.
  for (const auto& app : MakeAllApps()) {
    SCOPED_TRACE(app->info().name);
    FleetOptions options = BaseOptions(7, /*jobs=*/4);
    options.gist.stats_shadow = true;
    const CampaignFleet fleet = RunCampaignFleet(*app, options);
    if (!fleet.result.first_failure_found) {
      continue;  // nothing aggregated; nothing to compare
    }
    EXPECT_EQ(fleet.behavior_fingerprint, fleet.batch_fingerprint);
    EXPECT_EQ(fleet.sketch_render, fleet.batch_render);
  }
}

TEST(FleetCampaignTest, IncrementalMatchesBatchUnderChaos) {
  // Retries and duplicate wire deliveries must not double-count runs: the
  // run-identity dedup keeps the incremental aggregation equal to the batch
  // replay even under the full fault regime.
  std::unique_ptr<BugApp> app = MakeAppByName("apache-2");
  ASSERT_NE(app, nullptr);
  FleetOptions options = BaseOptions(2015, /*jobs=*/8);
  options.faults = ModerateFaults();
  options.gist.stats_shadow = true;
  const CampaignFleet fleet = RunCampaignFleet(*app, options);
  ASSERT_TRUE(fleet.result.first_failure_found);
  EXPECT_EQ(fleet.behavior_fingerprint, fleet.batch_fingerprint);
  EXPECT_EQ(fleet.sketch_render, fleet.batch_render);
}

TEST(FleetCampaignTest, CorpusSubsetShadowIdenticalAcrossJobs) {
  // A 20-program synthesized subset under shadow mode (via the environment
  // knob, the way CI turns it on), scored at two worker counts: every fleet's
  // incremental aggregation must match its batch recompute, and the corpus
  // report must stay byte-identical across jobs.
  CorpusOptions gen;
  gen.seed = 2015;
  gen.count = 20;
  const std::vector<GeneratedProgram> programs = GenerateCorpus(gen);
  ASSERT_EQ(programs.size(), 20u);
  ASSERT_EQ(setenv("GIST_STATS_SHADOW", "1", /*overwrite=*/1), 0);
  CorpusScoreOptions options;
  options.jobs = 1;
  options.runs_per_iteration = 200;
  options.max_iterations = 4;
  const CorpusScore sequential = ScoreCorpus(programs, options);
  options.jobs = 4;
  const CorpusScore parallel = ScoreCorpus(programs, options);
  ASSERT_EQ(unsetenv("GIST_STATS_SHADOW"), 0);
  EXPECT_EQ(sequential.ReportJson(), parallel.ReportJson());
}

}  // namespace
}  // namespace gist
