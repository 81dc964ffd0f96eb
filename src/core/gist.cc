#include "src/core/gist.h"

#include <algorithm>
#include <cstdlib>

#include "src/pt/decoder.h"

namespace gist {
namespace {

bool StatsShadowFromEnv() {
  const char* env = std::getenv("GIST_STATS_SHADOW");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

}  // namespace

GistServer::IngestSlots::IngestSlots(MetricsRegistry* metrics)
    : decode_packets(metrics->CounterSlot("pt.decode.packets")),
      decode_bytes(metrics->CounterSlot("pt.decode.bytes")),
      decode_tnt_bits(metrics->CounterSlot("pt.decode.tnt_bits")),
      decode_walks(metrics->CounterSlot("pt.decode.walks")),
      rejected_foreign(metrics->CounterSlot("server.traces.rejected_foreign")),
      quarantined(metrics->CounterSlot("server.traces.quarantined")),
      accepted(metrics->CounterSlot("server.traces.accepted")),
      recurrences(metrics->CounterSlot("server.failure_recurrences")),
      upload_bytes(metrics->HistogramSlot("pt.upload_bytes")) {
  for (size_t fault = 0; fault < kNumPtDecodeFaults; ++fault) {
    decode_errors[fault] = metrics->CounterSlot(
        std::string("pt.decode.errors.") + PtDecodeFaultKey(static_cast<PtDecodeFault>(fault)));
  }
}

GistServer::GistServer(const Module& module, GistOptions options)
    : module_(module),
      options_(std::move(options)),
      ticfg_(std::make_shared<const Ticfg>(module)),
      decoded_(std::make_shared<const DecodedModule>(module)),
      behavior_(options_.beta),
      stats_shadow_(options_.stats_shadow || StatsShadowFromEnv()),
      ingest_(&metrics_) {}

void GistServer::ReportFailure(const FailureReport& report) {
  GIST_CHECK_NE(report.failing_instr, kNoInstr) << "failure report lacks a failing statement";
  has_target_ = true;
  target_hash_ = report.MatchHash();
  slice_ = ComputeBackwardSlice(*ticfg_, report.failing_instr);
  ast_ = std::make_unique<AstController>(slice_, options_.initial_sigma, options_.ast_growth);
  traces_.clear();
  stream_memo_.Clear();
  failing_summaries_.clear();
  behavior_.Reset();
  discovered_.clear();
  failure_recurrences_ = 0;
  metrics_.Add("server.failures_reported");
  metrics_.Set("ast.slice_statements", static_cast<int64_t>(slice_.size()));
  Replan();
}

void GistServer::Replan() {
  std::vector<InstrId> window = ast_->Window();
  for (InstrId id : discovered_) {
    if (std::find(window.begin(), window.end(), id) == window.end()) {
      window.push_back(id);
    }
  }
  plan_ = PlanInstrumentation(*ticfg_, window);
  ++plan_version_;
  // The memo's digests do not depend on the plan, but a new plan makes new
  // streams: dropping the old ones keeps the memo to the current version.
  stream_memo_.Clear();
  metrics_.Add("ast.replans");
  metrics_.Set("ast.sigma", static_cast<int64_t>(ast_->sigma()));
  metrics_.Set("ast.window_statements", static_cast<int64_t>(window.size()));
  metrics_.Set("ast.discovered_statements", static_cast<int64_t>(discovered_.size()));
}

GistServer::TraceIngest GistServer::AddTrace(RunTrace trace) {
  GIST_CHECK(has_target_);
  if (trace.failed && trace.failure.MatchHash() != target_hash_) {
    *ingest_.rejected_foreign += 1;
    return TraceIngest::kRejectedForeign;  // a different bug; not our target
  }

  // Validate every PT stream before the trace influences anything. Uploads
  // are production data that crossed a wire — a stream the hardened decoder
  // rejects quarantines the whole trace (DESIGN.md §8). All cores are decoded
  // even after the first rejection: the decode-shape and error-class counters
  // must account every stream of the upload, or chaos fleets under-report
  // exactly the traffic they were injected to produce.
  //
  // A successful run is read only for its branch outcomes, so its streams
  // reduce to digests, and a stream this plan version already produced
  // reuses its digest (DESIGN.md §16). A failing run is decoded in full:
  // its summary walks the visits. A memo hit still adds the stream's stats,
  // so every counter but pt.decode.walks is the same as with a fresh walk.
  //
  // Watch events are untrusted too: an instruction id outside the module
  // would index past the module's tables (refinement, replanning, the
  // executed-set summary), so any such id quarantines the trace before
  // anything reads it.
  bool quarantine = std::any_of(
      trace.watch_events.begin(), trace.watch_events.end(),
      [&](const WatchEvent& event) { return event.instr >= module_.num_instructions(); });
  uint64_t upload_bytes = 0;
  std::vector<PtDecodeResult> decoded;  // failing runs only
  std::vector<std::shared_ptr<const PtStreamDigest>> digests;
  digests.reserve(trace.pt_buffers.size());
  for (size_t core = 0; core < trace.pt_buffers.size(); ++core) {
    const std::vector<uint8_t>& bytes = trace.pt_buffers[core];
    upload_bytes += bytes.size();
    std::shared_ptr<const PtStreamDigest> digest =
        trace.failed ? nullptr : stream_memo_.Find(bytes);
    if (digest == nullptr) {
      *ingest_.decode_walks += 1;
      if (trace.failed) {
        decoded.push_back(DecodePt(module_, static_cast<CoreId>(core), bytes));
        digest = std::make_shared<const PtStreamDigest>(DigestOf(decoded.back()));
      } else {
        digest = std::make_shared<const PtStreamDigest>(DigestPt(module_, bytes));
        stream_memo_.Insert(bytes, digest);
      }
    }
    *ingest_.decode_packets += digest->stats.packets;
    *ingest_.decode_bytes += digest->stats.bytes;
    *ingest_.decode_tnt_bits += digest->stats.tnt_bits;
    if (!digest->ok()) {
      quarantine = true;
      *ingest_.decode_errors[static_cast<size_t>(digest->error->fault)] += 1;
    }
    digests.push_back(std::move(digest));
  }
  if (quarantine) {
    ++quarantined_traces_;
    *ingest_.quarantined += 1;
    return TraceIngest::kQuarantined;
  }
  *ingest_.accepted += 1;
  ingest_.upload_bytes->Observe(upload_bytes);

  // Streaming statistics (DESIGN.md §14): the accepted run's predictor set
  // is extracted once right here — O(this run's distinct branch outcomes and
  // events) — and folded into the running BehaviorStats keyed by run
  // identity, so a retried upload of an already-counted run cannot
  // double-count.
  std::vector<std::span<const uint64_t>> branch_keys;
  branch_keys.reserve(digests.size());
  for (const auto& digest : digests) {
    branch_keys.emplace_back(digest->branch_keys);
  }
  behavior_.RecordRun(trace.run_id, ExtractPredictors(branch_keys, trace.watch_events),
                      trace.failed);

  if (trace.failed) {
    ++failure_recurrences_;
    *ingest_.recurrences += 1;
    // Ingest-once summary (DESIGN.md §15): the executed-instruction bitset
    // and per-thread positions are all reference-run selection and layout
    // read, so sketch builds never decode this trace again.
    failing_summaries_.push_back(SummarizeFailingTrace(module_, traces_.size(), decoded));
  }

  // Data-flow refinement: watchpoint-caught statements outside the static
  // slice are added to it (the alias-analysis replacement, §3.2.3). Future
  // plans give them PT coverage and watchpoints of their own.
  bool grew = false;
  for (const WatchEvent& event : trace.watch_events) {
    if (!slice_.Contains(event.instr) &&
        std::find(discovered_.begin(), discovered_.end(), event.instr) == discovered_.end()) {
      discovered_.push_back(event.instr);
      grew = true;
    }
  }
  traces_.push_back(std::move(trace));
  if (grew) {
    Replan();
  }
  return TraceIngest::kAccepted;
}

PlanSnapshot GistServer::Snapshot() const {
  GIST_CHECK(has_target_);
  return PlanSnapshot(module_, plan_, options_.watchpoint_slots, plan_version_, sigma(),
                      decoded_);
}

Result<FailureSketch> GistServer::BuildSketch() const {
  GIST_CHECK(has_target_);
  SketchOptions sketch_options;
  sketch_options.beta = options_.beta;
  sketch_options.title = options_.title;
  sketch_options.discovered = &discovered_;
  sketch_options.quarantined = quarantined_traces_;
  sketch_options.behavior = &behavior_;
  sketch_options.failing_summaries = &failing_summaries_;
  sketch_options.shadow_check = stats_shadow_;
  Result<FailureSketch> sketch =
      BuildFailureSketch(module_, plan_.window, traces_, sketch_options);
  metrics_.Add("stats.sketch_builds");
  if (sketch.ok()) {
    metrics_.Add("stats.predictor_evaluations",
                 static_cast<uint64_t>(sketch->predictors_evaluated));
    metrics_.Add("stats.sketch_pt_decodes", sketch->pt_decodes);
  }
  return sketch;
}

GistCampaignState GistServer::CampaignState() const {
  GIST_CHECK(has_target_);
  GistCampaignState state;
  state.iteration = ast_->iteration();
  state.sigma = ast_->sigma();
  state.slice_statements = static_cast<uint32_t>(ast_->slice_size());
  state.window_statements = static_cast<uint32_t>(ast_->WindowSize());
  state.slice_exhausted = ast_->ExhaustedSlice();
  state.recurrences = failure_recurrences_;
  state.quarantined = quarantined_traces_;
  state.behavior_runs = behavior_.runs_recorded();
  state.duplicate_uploads = behavior_.duplicates_ignored();
  state.predictor_count = behavior_.stats().predictor_count();
  return state;
}

void GistServer::AdvanceAst() {
  GIST_CHECK(has_target_);
  ast_->Advance();
  metrics_.Add("ast.advances");
  Replan();
}

namespace {

RunObsSample SampleObs(const ClientRuntime& runtime) {
  RunObsSample obs;
  obs.traced_branches = runtime.tracer().traced_branches();
  obs.watch_denied_arms = runtime.watchpoints().denied_arms();
  obs.watch_peak_active = runtime.watchpoints().peak_active();
  obs.unarmed_accesses = runtime.unarmed_accesses().size();
  // Profiler attribution (DESIGN.md §10). The runtime is the run's single
  // attached observer; its declared mask stands in for the dispatch cost of
  // the whole observer set.
  obs.observer_masks.push_back(runtime.SubscribedEvents());
  obs.watch_slot_arms = runtime.watchpoints().slot_arms();
  obs.watch_slot_traps = runtime.watchpoints().slot_traps();
  obs.watch_traps_by_instr.assign(runtime.watchpoints().traps_by_instr().begin(),
                                  runtime.watchpoints().traps_by_instr().end());
  return obs;
}

}  // namespace

RunMetricsPublisher::RunMetricsPublisher(MetricsRegistry* metrics)
    : vm_retired_(metrics->CounterSlot("vm.instructions_retired")),
      vm_mem_accesses_(metrics->CounterSlot("vm.mem_accesses")),
      vm_branches_(metrics->CounterSlot("vm.branches")),
      vm_context_switches_(metrics->CounterSlot("vm.context_switches")),
      vm_threads_created_(metrics->CounterSlot("vm.threads_created")),
      vm_block_enters_(metrics->CounterSlot("vm.block_enters")),
      vm_returns_(metrics->CounterSlot("vm.returns")),
      vm_thread_events_(metrics->CounterSlot("vm.thread_events")),
      vm_run_steps_(metrics->HistogramSlot("vm.run_steps")),
      engine_bursts_(metrics->CounterSlot("engine.bursts")),
      engine_retired_deliveries_(metrics->CounterSlot("engine.retired_deliveries")),
      engine_mem_deliveries_(metrics->CounterSlot("engine.mem_deliveries")),
      engine_dispatched_(metrics->CounterSlot("engine.dispatched_events")),
      engine_fused_chains_(metrics->CounterSlot("engine.fused_chains")),
      engine_fused_blocks_(metrics->CounterSlot("engine.fused_blocks")),
      engine_fused_retired_(metrics->CounterSlot("engine.fused_retired")),
      monitored_runs_(metrics->CounterSlot("vm.monitored_runs")),
      pt_bytes_(metrics->CounterSlot("pt.encode.bytes")),
      pt_toggles_(metrics->CounterSlot("pt.encode.toggles")),
      pt_traced_branches_(metrics->CounterSlot("pt.encode.traced_branches")),
      watch_traps_(metrics->CounterSlot("hw.watch.traps")),
      watch_arms_(metrics->CounterSlot("hw.watch.arms")),
      watch_denied_arms_(metrics->CounterSlot("hw.watch.denied_arms")),
      watch_unarmed_accesses_(metrics->CounterSlot("hw.watch.unarmed_accesses")),
      watch_peak_active_(metrics->GaugeSlot("hw.watch.peak_active")) {}

void RunMetricsPublisher::PublishVm(const RunStats& stats) {
  *vm_retired_ += stats.steps;
  *vm_mem_accesses_ += stats.mem_accesses;
  *vm_branches_ += stats.branches;
  *vm_context_switches_ += stats.context_switches;
  *vm_threads_created_ += stats.threads_created;
  *vm_block_enters_ += stats.block_enters;
  *vm_returns_ += stats.returns;
  *vm_thread_events_ += stats.thread_events;
  vm_run_steps_->Observe(stats.steps);
  *engine_bursts_ += stats.bursts;
  *engine_retired_deliveries_ += stats.retired_deliveries;
  *engine_mem_deliveries_ += stats.mem_deliveries;
  *engine_dispatched_ += stats.dispatched_events;
  *engine_fused_chains_ += stats.fused_chains;
  *engine_fused_blocks_ += stats.fused_blocks;
  *engine_fused_retired_ += stats.fused_retired;
}

void RunMetricsPublisher::Publish(const MonitoredRun& run) {
  PublishVm(run.result.stats);
  ++*monitored_runs_;
  *pt_bytes_ += run.trace.activity.pt_bytes;
  *pt_toggles_ += run.trace.activity.pt_toggles;
  *pt_traced_branches_ += run.obs.traced_branches;
  *watch_traps_ += run.trace.activity.watch_traps;
  *watch_arms_ += run.trace.activity.watch_arms;
  *watch_denied_arms_ += run.obs.watch_denied_arms;
  *watch_unarmed_accesses_ += run.obs.unarmed_accesses;
  // SetMax semantics: the gauge only moves up.
  if (static_cast<int64_t>(run.obs.watch_peak_active) > *watch_peak_active_) {
    *watch_peak_active_ = static_cast<int64_t>(run.obs.watch_peak_active);
  }
}

void PublishVmStats(const RunStats& stats, MetricsRegistry* metrics) {
  RunMetricsPublisher(metrics).PublishVm(stats);
}

void PublishRunMetrics(const MonitoredRun& run, MetricsRegistry* metrics) {
  RunMetricsPublisher(metrics).Publish(run);
}

ProfiledRunSample MakeProfiledSample(const RunStats& stats) {
  ProfiledRunSample sample;
  sample.retired = stats.steps;
  sample.mem_accesses = stats.mem_accesses;
  sample.branches = stats.branches;
  sample.context_switches = stats.context_switches;
  sample.block_enters = stats.block_enters;
  sample.returns = stats.returns;
  sample.thread_events = stats.thread_events;
  return sample;
}

ProfiledRunSample MakeProfiledSample(const MonitoredRun& run) {
  ProfiledRunSample sample = MakeProfiledSample(run.result.stats);
  sample.observer_masks = run.obs.observer_masks;
  sample.watch_denied_arms = run.obs.watch_denied_arms;
  sample.watch_slot_arms = run.obs.watch_slot_arms;
  sample.watch_slot_traps = run.obs.watch_slot_traps;
  sample.watch_traps_by_instr = run.obs.watch_traps_by_instr;
  return sample;
}

MonitoredRun RunMonitored(const Module& module, const InstrumentationPlan& plan,
                          const Workload& workload, const GistOptions& options, uint64_t run_id,
                          uint64_t max_steps) {
  const SiteTable sites = CompileSiteTable(module, plan);
  ClientRuntime runtime(module, plan, sites, options.num_cores, options.pt_buffer_bytes,
                        options.watchpoint_slots);
  MonitoredRun run;
  VmOptions vm_options;
  vm_options.num_cores = options.num_cores;
  vm_options.max_steps = max_steps;
  vm_options.observers = {&runtime};
  vm_options.hook = &runtime;
  vm_options.reference_dispatch = options.tier == ExecTier::kReference;
  if (options.collect_profile) {
    vm_options.profile = &run.profile;
  }
  Vm vm(module, workload, vm_options);
  run.result = vm.Run();
  run.trace = runtime.TakeTrace(run_id, run.result);
  run.obs = SampleObs(runtime);
  return run;
}

MonitoredRun RunMonitored(const Module& module, const PlanSnapshot& snapshot,
                          uint64_t client_index, const Workload& workload,
                          const GistOptions& options, uint64_t run_id, uint64_t max_steps,
                          const RunDegradation& degradation) {
  ClientRuntime runtime(module, snapshot, client_index, options.num_cores,
                        options.pt_buffer_bytes, degradation.watchpoint_slots);
  MonitoredRun run;
  VmOptions vm_options;
  vm_options.num_cores = options.num_cores;
  vm_options.max_steps = max_steps;
  vm_options.kill_after_steps = degradation.kill_after_steps;
  vm_options.observers = {&runtime};
  vm_options.hook = &runtime;
  vm_options.decoded = snapshot.decoded().get();  // shared fleet-wide cache
  vm_options.reference_dispatch = options.tier == ExecTier::kReference;
  if (options.collect_profile) {
    vm_options.profile = &run.profile;
  }
  Vm vm(module, workload, vm_options);
  run.result = vm.Run();
  run.trace = runtime.TakeTrace(run_id, run.result);
  run.obs = SampleObs(runtime);
  return run;
}

}  // namespace gist
