// Public facade of the Gist failure-sketching engine (paper Fig. 2).
//
// Server side (offline, "developer site"):
//   GistServer server(module, options);
//   server.ReportFailure(report);            // ① failure report
//   const InstrumentationPlan& plan = server.plan();   // ② instrumentation
//   ... clients run with the plan and produce RunTraces ...
//   server.AddTrace(std::move(trace));       // ④ runtime traces
//   Result<FailureSketch> sketch = server.BuildSketch();   // ⑤ sketch
//   if (!sketch_has_root_cause) server.AdvanceAst();       // ③ refinement
//
// Client side (production run):
//   MonitoredRun run = RunMonitored(module, server.plan(), workload, opts);

#ifndef GIST_SRC_CORE_GIST_H_
#define GIST_SRC_CORE_GIST_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/slicer.h"
#include "src/core/ast_controller.h"
#include "src/core/client_runtime.h"
#include "src/core/instrumentation.h"
#include "src/core/plan_snapshot.h"
#include "src/core/renderer.h"
#include "src/core/sketch.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/vm/vm.h"

namespace gist {

struct GistOptions {
  uint32_t initial_sigma = kDefaultInitialSigma;
  AstGrowth ast_growth = AstGrowth::kMultiplicative;
  double beta = kDefaultBeta;
  uint32_t num_cores = 4;
  size_t pt_buffer_bytes = kDefaultPtBufferBytes;
  // Hardware watchpoint slots per client (x86 has 4; the ablation bench
  // sweeps this).
  uint32_t watchpoint_slots = kNumWatchpointSlots;
  std::string title = "failure";
  // Collect a per-run BlockProfile shard into MonitoredRun::profile
  // (DESIGN.md §10). The fleet turns this on when a HotPathProfiler is
  // attached; off, monitored runs pay zero profiling cost.
  bool collect_profile = false;
  // Always null. It exists only so perfbench/inputs.cc, which pins it, keeps
  // compiling; a later benchmark-owned change removes the pin and the field.
  std::nullptr_t store = nullptr;
  // Dispatch for monitored runs: the fast path (fused bodies included,
  // DESIGN.md §12) or the reference oracle. Tier choice never changes any
  // run result or export byte outside the "engine." metrics namespace.
  ExecTier tier = ExecTier::kFast;
  // Shadow mode for the streaming statistics (DESIGN.md §14, §15): every
  // sketch build additionally runs the batch recompute over the stored
  // traces and CHECK-fails unless it fingerprints byte-identically to the
  // incremental aggregation and picks the same reference run as the
  // ingest-time summaries. OR-ed with the GIST_STATS_SHADOW=1 environment
  // variable.
  bool stats_shadow = false;
};

// Live per-failure campaign state (DESIGN.md §14): everything the status
// surface renders about where a diagnosis stands, read off the server on the
// coordinator thread. Plain data so it threads through fleets and CLIs
// without touching server internals.
struct GistCampaignState {
  uint32_t iteration = 0;
  uint32_t sigma = 0;
  uint32_t slice_statements = 0;
  uint32_t window_statements = 0;  // min(σ, slice) — the tracked portion
  bool slice_exhausted = false;
  uint32_t recurrences = 0;
  uint64_t quarantined = 0;
  uint64_t behavior_runs = 0;       // distinct runs feeding the streaming stats
  uint64_t duplicate_uploads = 0;   // uploads dropped by run-identity dedup
  uint64_t predictor_count = 0;     // distinct predictors currently tracked
};

class GistServer {
 public:
  explicit GistServer(const Module& module, GistOptions options = {});

  const Module& module() const { return module_; }
  const Ticfg& ticfg() const { return *ticfg_; }

  // Registers the target failure: computes the static backward slice from the
  // failing statement and the initial instrumentation plan.
  void ReportFailure(const FailureReport& report);
  bool HasTarget() const { return has_target_; }

  const StaticSlice& slice() const {
    GIST_CHECK(has_target_);
    return slice_;
  }
  const InstrumentationPlan& plan() const {
    GIST_CHECK(has_target_);
    return plan_;
  }
  // Counts replans since the target was reported: any refinement discovery or
  // AsT advance bumps it. Snapshots carry the version they froze, so a
  // coordinator can tell whether refinement outpaced in-flight runs.
  uint64_t plan_version() const {
    GIST_CHECK(has_target_);
    return plan_version_;
  }
  // Freezes the current plan (and the §3.2.3 cooperative watchpoint
  // rotation) into an immutable snapshot. This is the only server state the
  // execution engine hands to monitored runs; the server itself stays on the
  // coordinator thread. The snapshot carries the server's pre-decoded module
  // cache, so every fleet run of it interprets from the same DecodedModule.
  PlanSnapshot Snapshot() const;

  // The server's pre-decoded interpreter cache for module() (built once at
  // construction; immutable and safe to share across concurrent runs).
  const std::shared_ptr<const DecodedModule>& decoded() const { return decoded_; }

  uint32_t sigma() const {
    GIST_CHECK(has_target_);
    return ast_->sigma();
  }
  uint32_t ast_iteration() const {
    GIST_CHECK(has_target_);
    return ast_->iteration();
  }
  bool ExhaustedSlice() const {
    GIST_CHECK(has_target_);
    return ast_->ExhaustedSlice();
  }

  // How AddTrace disposed of an upload.
  enum class TraceIngest : uint8_t {
    kAccepted,         // stored; feeds statistics and the sketch
    kRejectedForeign,  // a different bug than the target; ignored
    kQuarantined,      // arrived but failed validation; counted, never stored
  };

  // Accepts a run trace. Failing traces are kept only when their failure
  // matches the target (program counter + stack-trace hash, §3 footnote 1);
  // successful traces of instrumented runs are always kept.
  //
  // Validation (DESIGN.md §8): the server decodes every PT stream before
  // admitting a trace. Uploads with undecodable streams — truncated or
  // bit-corrupted in production or in transit — or with a watch event naming
  // an instruction outside the module are quarantined: they never reach the
  // statistics, the sketch, or the recurrence count, so one rotten trace
  // cannot poison an iteration's diagnosis. A successful trace's streams
  // reduce to branch-outcome digests, and a stream this plan version
  // already walked is served from a bounded memo (DESIGN.md §16). An
  // accepted failing trace is decoded in full and reduced to its
  // executed-instruction bitset and per-thread positions (DESIGN.md §15),
  // which sketch builds use to pick and lay out the reference run without
  // re-decoding.
  //
  // Refinement (§3.2.3): statements the watchpoints caught that the static
  // slice missed are *added to the slice* — subsequent plans track them with
  // PT and watchpoints of their own.
  TraceIngest AddTrace(RunTrace trace);

  // Statements added to the slice by data-flow refinement so far.
  const std::vector<InstrId>& discovered_instrs() const { return discovered_; }

  uint32_t failure_recurrences() const { return failure_recurrences_; }
  size_t trace_count() const { return traces_.size(); }
  const std::vector<RunTrace>& traces() const { return traces_; }
  // Uploads quarantined by PT validation since the target was reported.
  uint64_t quarantined_traces() const { return quarantined_traces_; }
  // Bytes held by the ingest stream memo (DESIGN.md §16); never above
  // PtDigestMemo::kBudgetBytes.
  size_t stream_memo_bytes() const { return stream_memo_.bytes(); }

  // Streaming behavior statistics over the accepted traces, updated at
  // ingest (DESIGN.md §14): sketch builds rank from this aggregation, and
  // the convergence tracker reads its predictor ranking per iteration.
  const BehaviorStats& behavior() const { return behavior_; }

  // Snapshot of the live campaign state for the status surface.
  GistCampaignState CampaignState() const;

  Result<FailureSketch> BuildSketch() const;

  // Doubles σ and recomputes the plan. Traces already collected are kept:
  // their predictors remain valid for the statistics.
  void AdvanceAst();

  // Server-side flight-recorder counters (DESIGN.md §9): trace ingest
  // dispositions, PT decode stream shape and error classes, AsT replans and
  // window gauges, sketch builds. Mutable because BuildSketch() is const;
  // every update happens on the coordinator thread, like all server state.
  const MetricsRegistry& metrics() const { return metrics_; }

 private:
  // Recomputes the plan for the current AsT window plus every statement
  // refinement has added to the slice.
  void Replan();

  // Ingest-path metric slots, resolved once per server (the PR 6 discipline
  // RunMetricsPublisher established): AddTrace runs once per upload on 10^3+
  // run fleets, and looking the names up per trace re-walked the sorted
  // registry map — with a heap-allocated "pt.decode.errors." + key string
  // per faulty stream on the error path.
  struct IngestSlots {
    explicit IngestSlots(MetricsRegistry* metrics);

    uint64_t* decode_packets;
    uint64_t* decode_bytes;
    uint64_t* decode_tnt_bits;
    uint64_t* decode_walks;  // streams walked; memo hits excluded
    uint64_t* decode_errors[kNumPtDecodeFaults];
    uint64_t* rejected_foreign;
    uint64_t* quarantined;
    uint64_t* accepted;
    uint64_t* recurrences;
    Histogram* upload_bytes;
  };

  const Module& module_;
  GistOptions options_;
  std::shared_ptr<const Ticfg> ticfg_;
  std::shared_ptr<const DecodedModule> decoded_;
  bool has_target_ = false;
  uint64_t target_hash_ = 0;
  StaticSlice slice_;
  std::unique_ptr<AstController> ast_;
  InstrumentationPlan plan_;
  uint64_t plan_version_ = 0;
  std::vector<RunTrace> traces_;
  // Digests of the successful-run streams this plan version has walked
  // (DESIGN.md §16); cleared on every replan.
  PtDigestMemo stream_memo_;
  // One executed-set-and-positions summary per accepted failing trace, in
  // traces_ order (DESIGN.md §15).
  std::vector<FailingTraceSummary> failing_summaries_;
  BehaviorStats behavior_;
  bool stats_shadow_ = false;
  std::vector<InstrId> discovered_;
  uint32_t failure_recurrences_ = 0;
  uint64_t quarantined_traces_ = 0;
  mutable MetricsRegistry metrics_;
  IngestSlots ingest_;  // after metrics_: slots resolve into it
};

// Client-side observability sample for one monitored run (DESIGN.md §9).
// Deliberately NOT part of RunTrace: the wire format a client ships is
// unchanged; these numbers travel the coordinator-local side channel only.
struct RunObsSample {
  uint64_t traced_branches = 0;   // branch outcomes the PT encoder compressed
  uint64_t watch_denied_arms = 0; // arm requests refused (all slots busy)
  uint32_t watch_peak_active = 0; // most debug registers simultaneously armed
  uint64_t unarmed_accesses = 0;  // tracked accesses left to fleet rotation
  // Profiler attribution (DESIGN.md §10): the declared SubscribedEvents()
  // mask of each attached observer, per-debug-register contention, and trap
  // counts per trapping instruction.
  std::vector<uint32_t> observer_masks;
  std::vector<uint64_t> watch_slot_arms;
  std::vector<uint64_t> watch_slot_traps;
  std::vector<std::pair<InstrId, uint64_t>> watch_traps_by_instr;
};

// One monitored production run: executes `workload` under the plan's
// instrumentation and returns the outcome plus the trace to ship.
struct MonitoredRun {
  RunResult result;
  RunTrace trace;
  RunObsSample obs;
  // Per-run profile shard; populated only when GistOptions::collect_profile.
  BlockProfile profile;
};

// Publishes per-run metrics into one registry. The publisher resolves every
// metric name to its storage slot once at construction (the registry's maps
// are node-based, so the slots stay valid) — the fleet coordinator publishes
// one run at a time for 10^3+ runs per diagnosis, and re-walking the sorted
// map for ~20 names per run was the hottest coordinator-side cost.
class RunMetricsPublisher {
 public:
  explicit RunMetricsPublisher(MetricsRegistry* metrics);

  // Mode-independent VM counters ("vm.") + dispatch-engine telemetry
  // ("engine.") of one run.
  void PublishVm(const RunStats& stats);
  // Everything a consumed monitored run contributes: PublishVm plus
  // PT-encode ("pt.encode.") and watchpoint ("hw.watch.") activity.
  void Publish(const MonitoredRun& run);

 private:
  // "vm." / "engine." slots.
  uint64_t* vm_retired_;
  uint64_t* vm_mem_accesses_;
  uint64_t* vm_branches_;
  uint64_t* vm_context_switches_;
  uint64_t* vm_threads_created_;
  uint64_t* vm_block_enters_;
  uint64_t* vm_returns_;
  uint64_t* vm_thread_events_;
  Histogram* vm_run_steps_;
  uint64_t* engine_bursts_;
  uint64_t* engine_retired_deliveries_;
  uint64_t* engine_mem_deliveries_;
  uint64_t* engine_dispatched_;
  uint64_t* engine_fused_chains_;
  uint64_t* engine_fused_blocks_;
  uint64_t* engine_fused_retired_;
  // Monitored-run slots.
  uint64_t* monitored_runs_;
  uint64_t* pt_bytes_;
  uint64_t* pt_toggles_;
  uint64_t* pt_traced_branches_;
  uint64_t* watch_traps_;
  uint64_t* watch_arms_;
  uint64_t* watch_denied_arms_;
  uint64_t* watch_unarmed_accesses_;
  int64_t* watch_peak_active_;
};

// One-shot wrappers over RunMetricsPublisher, for callers that publish a
// single run (tests, ad-hoc tools). Hot loops construct the publisher once.
void PublishVmStats(const RunStats& stats, MetricsRegistry* metrics);
void PublishRunMetrics(const MonitoredRun& run, MetricsRegistry* metrics);

// Builds the profiler's per-run sample (src/obs/profiler.h). The RunStats
// flavor covers unmonitored phase-1 probes (event tallies only); the
// MonitoredRun flavor adds the observer masks and watchpoint attribution.
ProfiledRunSample MakeProfiledSample(const RunStats& stats);
ProfiledRunSample MakeProfiledSample(const MonitoredRun& run);

MonitoredRun RunMonitored(const Module& module, const InstrumentationPlan& plan,
                          const Workload& workload, const GistOptions& options = {},
                          uint64_t run_id = 0, uint64_t max_steps = 2'000'000);

// Client-side degradation injected into one monitored run (DESIGN.md §8).
// The default is a healthy client; the fault-injection layer fills this from
// a FaultPlan.
struct RunDegradation {
  // Nonzero: the client dies at this retired-instruction count (VmOptions::
  // kill_after_steps); the run result has killed == true and nothing ships.
  uint64_t kill_after_steps = 0;
  // != kSnapshotSlots: debug-register contention grants the run only this
  // many watchpoint slots (possibly zero) instead of the snapshot's budget.
  uint32_t watchpoint_slots = ClientRuntime::kSnapshotSlots;
};

// Snapshot flavor: the run executes client `client_index`'s rotation of the
// frozen plan. Touches no server state, so calls may run concurrently (one
// per thread) as long as the snapshot outlives them.
MonitoredRun RunMonitored(const Module& module, const PlanSnapshot& snapshot,
                          uint64_t client_index, const Workload& workload,
                          const GistOptions& options = {}, uint64_t run_id = 0,
                          uint64_t max_steps = 2'000'000,
                          const RunDegradation& degradation = {});

}  // namespace gist

#endif  // GIST_SRC_CORE_GIST_H_
