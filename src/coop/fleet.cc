#include "src/coop/fleet.h"

#include <algorithm>
#include <optional>

#include "src/coop/privacy.h"
#include "src/coop/wire.h"
#include "src/obs/campaign.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/profiler.h"
#include "src/support/logging.h"

namespace gist {
namespace {

// Salt separating the pacing stream from the workload stream: a generator
// may consume any amount of randomness without perturbing the simulated
// production spacing of later runs.
constexpr uint64_t kPacingSalt = 0x70616365'70616365ULL;  // "pacepace"

// Run-ahead depth of the fleet's ordered stream (DESIGN.md §6): every pool
// worker but one executes later run indices while the coordinator merges the
// current one, so a pool of n keeps n threads busy. A deeper window measured
// no faster per diagnosis but burned more CPU on runs a replan throws away;
// a single-worker pool runs nothing ahead, exactly a plain loop.
uint32_t Lookahead(const ThreadPool& pool) { return pool.size() - 1; }

}  // namespace

// One production run as the coordinator receives it. Everything here is a
// pure function of the run index (and, for monitored runs, the snapshot),
// built on whichever thread executed the run: the client-side outcome and
// telemetry, then — monitored runs only — the fault plan's degradation and
// the wire round trip. The coordinator keeps only the ordered work.
struct Fleet::ClientRun {
  // Probes fill result and profile. A monitored run's trace keeps only its
  // scalar accounting once shipped; the PT buffers travel in `upload`.
  MonitoredRun run;
  FaultPlan fault;
  bool lost = false;  // killed, timed out or dropped on the wire; never arrived
  double arrival_delay = 0.0;
  // The trace as the server deserialized it; empty when lost or when the
  // bytes would not deserialize (quarantined like an invalid trace).
  std::optional<RunTrace> upload;
};

Fleet::Fleet(const Module& module, WorkloadGenerator generator, FleetOptions options)
    : module_(module),
      generator_(std::move(generator)),
      options_(std::move(options)),
      server_(module, options_.gist) {}

Workload Fleet::WorkloadFor(uint64_t run_index) const {
  Rng rng(DeriveSeed(options_.fleet_seed, run_index));
  return generator_(run_index, rng);
}

double Fleet::PacingSecondsFor(uint64_t run_index) const {
  Rng rng(DeriveSeed(options_.fleet_seed ^ kPacingSalt, run_index));
  return options_.mean_run_spacing_seconds * rng.NextDouble() * 2.0;
}

void Fleet::FindFirstFailure(OrderedStream<ClientRun>& stream, FleetResult* result,
                             uint64_t* next_run_index) {
  FlightRecorder* recorder = options_.recorder;
  HotPathProfiler* profiler = options_.profiler;
  std::optional<RunMetricsPublisher> publisher;
  if (recorder != nullptr) {
    publisher.emplace(&recorder->metrics());
  }
  // All probes interpret from the server's shared pre-decoded cache.
  const DecodedModule* decoded = server_.decoded().get();
  const bool profile = profiler != nullptr;
  stream.Restart(0, options_.max_first_failure_runs, [this, decoded, profile](uint64_t index) {
    LogRunScope run_scope(static_cast<int64_t>(index));
    ClientRun probe;
    VmOptions vm_options;
    vm_options.num_cores = options_.gist.num_cores;
    vm_options.max_steps = options_.max_steps_per_run;
    vm_options.decoded = decoded;
    if (profile) {
      vm_options.profile = &probe.run.profile;
    }
    Vm vm(module_, WorkloadFor(index), vm_options);
    probe.run.result = vm.Run();
    if (!probe.run.result.ok() && probe.run.result.failure.failing_instr != kNoInstr) {
      GIST_LOG(kDebug) << "probe failed at instr " << probe.run.result.failure.failing_instr;
    }
    return probe;
  });
  // The recorder, profiler and campaign clock see probes 0..first failure
  // only, one at a time in index order, whatever the worker count: probes
  // run ahead past the first failure are dropped unrecorded.
  for (uint64_t index = 0; index < options_.max_first_failure_runs; ++index) {
    const ClientRun probe = stream.Take();
    const RunResult& run = probe.run.result;
    const bool failing = !run.ok() && run.failure.failing_instr != kNoInstr;
    if (options_.campaign != nullptr) {
      // The tracker's virtual clock follows the recorder's discipline but is
      // independent of it: a campaign journal must not change because a
      // recorder happened to be attached too.
      options_.campaign->AdvanceClock(run.stats.steps);
    }
    if (recorder != nullptr) {
      const uint64_t begin = recorder->now();
      recorder->AdvanceClock(run.stats.steps);
      recorder->metrics().Add("fleet.runs.probes");
      publisher->PublishVm(run.stats);
      recorder->AddSpan("probe", "phase1", begin, recorder->now(), FlightRecorder::kRunTrack,
                        {NumArg("run_index", index), StrArg("outcome", failing ? "failing" : "ok")});
    }
    if (profiler != nullptr) {
      profiler->AddRun(probe.run.profile, MakeProfiledSample(run.stats));
    }
    if (failing) {
      result->first_failure_found = true;
      result->first_failure = run.failure;
      *next_run_index = index + 1;
      if (recorder != nullptr) {
        recorder->AddInstant("first_failure", "fleet", FlightRecorder::kControlTrack,
                             {NumArg("run_index", index)});
      }
      break;
    }
  }
  stream.Cancel();
}

Fleet::ClientRun Fleet::RunClient(const PlanSnapshot& snapshot, uint64_t client, uint64_t index,
                                  const GistOptions& gist_options) const {
  LogRunScope run_scope(static_cast<int64_t>(index));
  ClientRun delivered;
  // Every fault decision replays the run's FaultPlan, so the whole delivery
  // is independent of worker count and of which thread executed the run.
  delivered.fault = FaultPlan::ForRun(options_.faults, options_.fleet_seed, index);
  const FaultPlan& fault = delivered.fault;
  // Client-side faults (death, debug-register contention) strike the run.
  RunDegradation degradation;
  if (fault.kill_run) {
    degradation.kill_after_steps = fault.kill_after_steps;
  }
  if (fault.exhaust_watchpoints) {
    degradation.watchpoint_slots = fault.granted_watchpoint_slots;
  }
  MonitoredRun& run = delivered.run;
  run = RunMonitored(module_, snapshot, client, WorkloadFor(index), gist_options, index + 1,
                     options_.max_steps_per_run, degradation);
  GIST_LOG(kDebug) << "monitored run done: " << run.result.stats.steps << " steps, "
                   << (run.trace.failed ? "failing" : "ok");

  // Degradation (DESIGN.md §8): does this run's trace ever reach the server?
  delivered.lost = run.result.killed;  // the client died; nothing was shipped
  if (!delivered.lost && fault.delay_result) {
    if (fault.result_delay_seconds > options_.faults.result_timeout_seconds) {
      delivered.lost = true;  // the server stopped waiting
    } else {
      delivered.arrival_delay = fault.result_delay_seconds;
    }
  }
  if (!delivered.lost) {
    // Client-side damage to the PT streams, then the trace travels from
    // client to server over the wire format, exactly as a deployed fleet
    // would ship it — anonymized first when the deployment demands it.
    ApplyPtFaults(fault, &run.trace.pt_buffers);
    if (options_.anonymize_traces) {
      AnonymizeRunTrace(&run.trace);
    }
    std::vector<uint8_t> shipped = SerializeRunTrace(run.trace);
    if (options_.faults.enabled) {
      // MTU chunking: a dropped chunk loses the upload; a reorder is
      // repaired by sequence numbers.
      std::vector<WireMessage> chunks = SplitWireMessages(shipped, options_.faults.wire_mtu_bytes);
      std::vector<WireMessage> arrived;
      for (uint32_t chunk : DeliveredChunkOrder(fault, static_cast<uint32_t>(chunks.size()))) {
        arrived.push_back(std::move(chunks[chunk]));
      }
      Result<std::vector<uint8_t>> reassembled = ReassembleWireMessages(std::move(arrived));
      if (reassembled.ok()) {
        shipped = std::move(*reassembled);
      } else {
        delivered.lost = true;
      }
    }
    if (!delivered.lost) {
      Result<RunTrace> received = DeserializeRunTrace(shipped);
      if (received.ok()) {
        delivered.upload = std::move(*received);
      }
    }
  }
  // The payload has shipped (or never will); the coordinator reads only the
  // client-side accounting.
  run.trace.pt_buffers = {};
  run.trace.watch_events = {};
  return delivered;
}

FleetResult Fleet::Run(const RootCauseCheck& root_cause_check) {
  FleetResult result;
  std::optional<ThreadPool> owned_pool;
  if (options_.shared_pool == nullptr) {
    owned_pool.emplace(options_.jobs);
  }
  ThreadPool& pool = options_.shared_pool != nullptr ? *options_.shared_pool : *owned_pool;
  FlightRecorder* recorder = options_.recorder;
  HotPathProfiler* profiler = options_.profiler;
  if (profiler != nullptr && !profiler->attached()) {
    profiler->Attach(*server_.decoded(), options_.gist.title);
  }
  // Monitored runs collect per-run profile shards only when a profiler is
  // aggregating them.
  GistOptions gist_options = options_.gist;
  gist_options.collect_profile = profiler != nullptr;
  // Per-run metric names resolve to registry slots once, not once per run.
  std::optional<RunMetricsPublisher> publisher;
  if (recorder != nullptr) {
    publisher.emplace(&recorder->metrics());
  }
  // Declared after everything its tasks read, so that its destructor, which
  // waits for runs still executing, runs first.
  OrderedStream<ClientRun> stream(pool, Lookahead(pool));

  // --- Phase 1: wait for the first failure in unmonitored production -------
  uint64_t run_index = 0;
  FindFirstFailure(stream, &result, &run_index);
  if (!result.first_failure_found) {
    GIST_LOG(kWarning) << "fleet: no failure observed in production budget";
    return result;
  }
  server_.ReportFailure(result.first_failure);

  // --- Phase 2: AsT iterations ---------------------------------------------
  double overhead_sum = 0.0;
  uint64_t overhead_samples = 0;
  const CostModel cost_model;

  for (uint32_t iteration = 0; iteration < options_.max_iterations; ++iteration) {
    FleetIterationStats stats;
    stats.iteration = iteration;
    stats.sigma = server_.sigma();
    const uint32_t recurrences_at_start = server_.failure_recurrences();
    const uint64_t iteration_begin = recorder != nullptr ? recorder->now() : 0;
    const uint64_t first_index = run_index;  // client 0; selects the rotation
    const uint64_t end_index = run_index + options_.runs_per_iteration;

    // Freeze: one immutable snapshot of (plan + watchpoint rotation), and
    // the stream restarted under it at the next unconsumed run. Clients only
    // ever see snapshots; when refinement below replans the server
    // mid-iteration, the loop re-freezes before taking the next run, which
    // drops every run executed ahead under the stale snapshot. So every
    // consumed run executed under the plan produced by all runs merged
    // before it — exactly the sequential contract, whatever the worker count.
    std::shared_ptr<const PlanSnapshot> snapshot;
    auto freeze = [&] {
      snapshot = std::make_shared<const PlanSnapshot>(server_.Snapshot());
      stream.Restart(run_index, end_index,
                     [this, &gist_options, snapshot, first_index](uint64_t index) {
                       return RunClient(*snapshot, index - first_index, index, gist_options);
                     });
    };
    freeze();
    if (recorder != nullptr) {
      recorder->metrics().SetMax("fleet.watch.rotations",
                                 static_cast<int64_t>(snapshot->rotation_count()));
    }

    bool iteration_done = false;
    uint32_t retries_used = 0;       // against FaultOptions::retry_budget_per_iteration
    uint32_t consecutive_losses = 0;  // drives the exponential backoff
    while (run_index < end_index && !iteration_done) {
      if (snapshot->version() != server_.plan_version()) {
        freeze();  // exactly one re-freeze per replan
        if (recorder != nullptr) {
          recorder->metrics().Add("fleet.refreezes");
          recorder->metrics().SetMax("fleet.watch.rotations",
                                     static_cast<int64_t>(snapshot->rotation_count()));
          recorder->AddInstant("refreeze", "fleet", FlightRecorder::kControlTrack,
                               {NumArg("version", server_.plan_version())});
        }
      }

      // Merge: runs enter the server one at a time in run-index order on
      // this thread, with the sequential loop's early-exit checks after each
      // one; the stream keeps later runs executing meanwhile.
      ClientRun delivered = stream.Take();
      MonitoredRun& run = delivered.run;
      const uint64_t index = run_index++;

      // Flight recorder: the consumed run advances the virtual clock by its
      // retired instructions and publishes its client-side telemetry, here
      // on the coordinator thread in run-index order.
      uint64_t span_begin = 0;
      if (options_.campaign != nullptr) {
        options_.campaign->AdvanceClock(run.result.stats.steps);
      }
      if (recorder != nullptr) {
        span_begin = recorder->now();
        recorder->AdvanceClock(run.result.stats.steps);
        recorder->metrics().Add("fleet.runs.consumed");
        publisher->Publish(run);
      }
      if (profiler != nullptr) {
        // Every consumed run contributes its shard — lost and quarantined
        // runs included, exactly like the recorder's clock — so the merged
        // profile is a pure function of the consumed prefix.
        profiler->AddRun(run.profile, MakeProfiledSample(run));
      }
      auto record_run_span = [&](const char* outcome) {
        if (recorder != nullptr) {
          recorder->AddSpan("run", "fleet", span_begin, recorder->now(),
                            FlightRecorder::kRunTrack,
                            {NumArg("run_index", index), NumArg("client", index - first_index),
                             StrArg("outcome", outcome)});
        }
      };

      // Simulated production pacing + the run itself.
      result.sim_seconds += PacingSecondsFor(index);
      result.sim_seconds +=
          static_cast<double>(run.trace.baseline_instructions) / (options_.clock_ghz * 1e9);

      const FaultPlan& fault = delivered.fault;
      if (recorder != nullptr && fault.any()) {
        MetricsRegistry& metrics = recorder->metrics();
        if (fault.kill_run) metrics.Add("fleet.faults.injected.kill");
        if (fault.truncate_pt) metrics.Add("fleet.faults.injected.truncate_pt");
        if (fault.corrupt_pt) metrics.Add("fleet.faults.injected.corrupt_pt");
        if (fault.drop_wire) metrics.Add("fleet.faults.injected.drop_wire");
        if (fault.reorder_wire) metrics.Add("fleet.faults.injected.reorder_wire");
        if (fault.exhaust_watchpoints) metrics.Add("fleet.faults.injected.exhaust_watchpoints");
        if (fault.delay_result) metrics.Add("fleet.faults.injected.delay_result");
      }
      if (delivered.lost) {
        // Retry with exponential backoff, up to the iteration budget: the
        // server re-requests a monitored run, which the loop's next index
        // supplies. Beyond the budget the loss is absorbed — statistics
        // renormalize over the runs that do arrive.
        ++stats.lost_runs;
        if (recorder != nullptr) {
          recorder->metrics().Add("fleet.runs.lost");
        }
        if (options_.faults.enabled &&
            retries_used < options_.faults.retry_budget_per_iteration) {
          const uint32_t exponent = std::min(consecutive_losses, 6u);
          result.sim_seconds +=
              options_.faults.retry_backoff_seconds * static_cast<double>(1u << exponent);
          ++retries_used;
          ++stats.retries;
          if (recorder != nullptr) {
            recorder->metrics().Add("fleet.retries");
            recorder->AddInstant("retry_backoff", "fleet", FlightRecorder::kControlTrack,
                                 {NumArg("run_index", index)});
          }
        }
        ++consecutive_losses;
        record_run_span("lost");
        continue;
      }
      consecutive_losses = 0;
      result.sim_seconds += delivered.arrival_delay;

      if (run.trace.baseline_instructions > 0) {
        overhead_sum += GistClientOverheadPercent(cost_model, run.trace.baseline_instructions,
                                                  run.trace.activity);
        ++overhead_samples;
      }
      const uint32_t recurrences_before = server_.failure_recurrences();
      // Bytes that would not deserialize are quarantined like a trace the
      // server's validation rejects: counted, never ingested.
      const GistServer::TraceIngest ingest = delivered.upload.has_value()
                                                 ? server_.AddTrace(std::move(*delivered.upload))
                                                 : GistServer::TraceIngest::kQuarantined;
      if (ingest == GistServer::TraceIngest::kQuarantined) {
        ++stats.quarantined_runs;
        if (recorder != nullptr) {
          recorder->metrics().Add("fleet.runs.quarantined");
          recorder->AddInstant("quarantine", "fleet", FlightRecorder::kControlTrack,
                               {NumArg("run_index", index)});
        }
        record_run_span("quarantined");
        continue;  // validation rejected the upload; it influences nothing
      }
      if (run.result.ok()) {
        ++stats.successful_runs;
        if (recorder != nullptr) {
          recorder->metrics().Add("fleet.runs.successful");
        }
        record_run_span("ok");
      } else {
        ++stats.failing_runs;
        if (recorder != nullptr) {
          recorder->metrics().Add("fleet.runs.failing");
        }
        record_run_span("failing");
      }
      if (recorder != nullptr && fault.any()) {
        // The run was struck by at least one injected fault and its trace
        // still reached the server intact.
        recorder->metrics().Add("fleet.faults.survived");
      }

      // A new recurrence of the target failure arrived: rebuild the sketch
      // and let the "developer" judge it. This is what Table 1 counts — the
      // number of failure recurrences consumed until the sketch is good.
      if (server_.failure_recurrences() > recurrences_before) {
        Result<FailureSketch> sketch = server_.BuildSketch();
        if (sketch.ok()) {
          result.sketch = *sketch;
          const bool found = root_cause_check(*sketch);
          if (recorder != nullptr) {
            recorder->AddInstant("sketch_build", "fleet", FlightRecorder::kControlTrack,
                                 {NumArg("run_index", index),
                                  StrArg("root_cause", found ? "yes" : "no")});
          }
          if (found) {
            stats.root_cause_found = true;
            iteration_done = true;
            continue;
          }
        }
      }

      // Enough data at this σ: grow the window rather than re-observing.
      const uint32_t iteration_matching = server_.failure_recurrences() - recurrences_at_start;
      if (iteration_matching >= options_.min_matching_failures &&
          stats.successful_runs >= options_.min_successful_runs) {
        iteration_done = true;
      }
    }
    stream.Cancel();  // nothing executed ahead survives the iteration


    stats.avg_overhead_percent =
        overhead_samples == 0 ? 0.0 : overhead_sum / static_cast<double>(overhead_samples);
    // Quorum (DESIGN.md §8): only runs that arrived AND passed validation
    // support the next AsT decision. When attrition leaves fewer than the
    // configured fraction of this iteration's runs standing, growing the
    // window would extrapolate from noise — re-monitor at the same σ.
    const uint32_t survivors = stats.successful_runs + stats.failing_runs;
    const uint32_t consumed_runs = survivors + stats.lost_runs + stats.quarantined_runs;
    stats.quorum_met =
        !options_.faults.enabled || consumed_runs == 0 ||
        static_cast<double>(survivors) >=
            options_.faults.quorum_fraction * static_cast<double>(consumed_runs);
    const bool saw_new_recurrence = server_.failure_recurrences() > recurrences_at_start;
    result.failure_recurrences = server_.failure_recurrences();
    result.lost_runs += stats.lost_runs;
    result.quarantined_runs += stats.quarantined_runs;
    result.retries += stats.retries;
    result.iterations.push_back(stats);
    if (options_.campaign != nullptr) {
      // One convergence sample per AsT iteration (DESIGN.md §14). Everything
      // here is a pure function of the consumed prefix: iteration tallies,
      // the server's campaign state, the latest sketch's statement sequence,
      // and the streaming statistics' predictor ranking.
      CampaignIterationSample sample;
      FillCampaignSample(server_, &result.sketch, &sample);
      sample.iteration = stats.iteration;
      sample.sigma = stats.sigma;
      sample.virtual_end = options_.campaign->now();
      sample.failing_runs = stats.failing_runs;
      sample.successful_runs = stats.successful_runs;
      sample.lost_runs = stats.lost_runs;
      sample.quarantined_runs = stats.quarantined_runs;
      sample.retries = stats.retries;
      sample.quorum_met = stats.quorum_met;
      sample.root_cause_found = stats.root_cause_found;
      sample.rotation_count = snapshot->rotation_count();
      sample.watchpoint_slots = options_.gist.watchpoint_slots;
      options_.campaign->RecordIteration(std::move(sample));
    }
    if (recorder != nullptr) {
      recorder->metrics().Add("fleet.iterations");
      recorder->AddSpan("iteration", "fleet", iteration_begin, recorder->now(),
                        FlightRecorder::kControlTrack,
                        {NumArg("iteration", static_cast<uint64_t>(iteration)),
                         NumArg("sigma", static_cast<uint64_t>(stats.sigma))});
    }

    if (stats.root_cause_found) {
      result.root_cause_found = true;
      break;
    }
    if (!saw_new_recurrence) {
      // The target failure did not recur within this iteration's budget:
      // growing the window without new data cannot help. Keep monitoring at
      // the same σ (the iteration still counts against max_iterations).
      continue;
    }
    if (!stats.quorum_met) {
      // Too few survivors to judge this σ; repeat it with the same plan.
      continue;
    }
    if (server_.ExhaustedSlice()) {
      break;  // the window already covers the whole slice
    }
    server_.AdvanceAst();
  }

  // Keep the last sketch even when no iteration satisfied the developer.
  if (!result.root_cause_found && server_.failure_recurrences() > 0) {
    Result<FailureSketch> sketch = server_.BuildSketch();
    if (sketch.ok()) {
      result.sketch = *sketch;
    }
  }

  result.failure_recurrences = server_.failure_recurrences();
  result.avg_overhead_percent =
      overhead_samples == 0 ? 0.0 : overhead_sum / static_cast<double>(overhead_samples);
  result.sigma_final = server_.sigma();
  if (profiler != nullptr && recorder != nullptr) {
    // The profile summary rides in the recorder snapshot ("profile."
    // namespace); the full histograms stay in the profiler's own exports.
    profiler->PublishSummary(&recorder->metrics());
  }
  if (recorder != nullptr) {
    // Fold in the server-side registry (ingest dispositions, PT decode,
    // AsT gauges, sketch statistics) — updated on this thread throughout, so
    // the combined snapshot inherits the fleet's determinism.
    recorder->metrics().Merge(server_.metrics());
  }
  return result;
}

void FillCampaignSample(const GistServer& server, const FailureSketch* sketch,
                        CampaignIterationSample* sample) {
  const GistCampaignState state = server.CampaignState();
  sample->recurrences = state.recurrences;
  sample->slice_statements = state.slice_statements;
  sample->window_statements = state.window_statements;
  sample->slice_exhausted = state.slice_exhausted;
  sample->watch_instrs = static_cast<uint32_t>(server.plan().watch_instrs.size());
  if (sketch != nullptr) {
    for (const SketchStatement& statement : sketch->statements) {
      sample->sketch_statements.push_back(statement.instr);
    }
  }
  const std::vector<ScoredPredictor> ranked = server.behavior().stats().Ranked();
  const size_t top = std::min(ranked.size(), CampaignTracker::kRankWindow);
  for (size_t r = 0; r < top; ++r) {
    sample->top_predictors.push_back(PredictorToString(ranked[r].predictor, server.module()));
  }
}

}  // namespace gist
