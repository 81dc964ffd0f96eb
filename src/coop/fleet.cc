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

// Runs speculated past an early-exit point are discarded unmerged, so batch
// sizing only trades wasted work against parallelism. Sequential fleets use
// batch 1 (zero speculation, exactly the pre-engine behavior); parallel
// fleets keep every worker busy for two rounds per merge.
uint32_t BatchSize(const ThreadPool& pool) {
  return pool.size() == 1 ? 1 : pool.size() * 2;
}

}  // namespace

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

void Fleet::FindFirstFailure(ThreadPool& pool, FleetResult* result, uint64_t* next_run_index) {
  const uint32_t batch_size = BatchSize(pool);
  FlightRecorder* recorder = options_.recorder;
  HotPathProfiler* profiler = options_.profiler;
  std::optional<RunMetricsPublisher> publisher;
  if (recorder != nullptr) {
    publisher.emplace(&recorder->metrics());
  }
  uint64_t base = 0;
  while (base < options_.max_first_failure_runs && !result->first_failure_found) {
    const uint32_t batch = static_cast<uint32_t>(
        std::min<uint64_t>(batch_size, options_.max_first_failure_runs - base));
    std::vector<FailureReport> failures(batch);
    std::vector<RunStats> probe_stats(batch);
    // One shard per probe; only the consumed prefix reaches the profiler.
    std::vector<BlockProfile> probe_profiles(profiler != nullptr ? batch : 0);
    pool.ParallelFor(batch, [&](uint64_t k) {
      LogRunScope run_scope(static_cast<int64_t>(base + k));
      const Workload workload = WorkloadFor(base + k);
      VmOptions vm_options;
      vm_options.num_cores = options_.gist.num_cores;
      vm_options.max_steps = options_.max_steps_per_run;
      // All probes interpret from the server's shared pre-decoded cache.
      vm_options.decoded = server_.decoded().get();
      if (profiler != nullptr) {
        vm_options.profile = &probe_profiles[k];
      }
      Vm vm(module_, workload, vm_options);
      const RunResult run = vm.Run();
      probe_stats[k] = run.stats;
      if (!run.ok() && run.failure.failing_instr != kNoInstr) {
        failures[k] = run.failure;
        GIST_LOG(kDebug) << "probe failed at instr " << run.failure.failing_instr;
      }
    });
    // Deterministic winner: the earliest failing run index, regardless of
    // which probe finished first. Later speculated probes are discarded.
    uint32_t winner = batch;
    for (uint32_t k = 0; k < batch; ++k) {
      if (failures[k].failing_instr != kNoInstr) {
        winner = k;
        break;
      }
    }
    // Recorder accounting covers the consumed prefix only: every batch size
    // eventually executes exactly probes 0..winner, so clock and counters
    // stay independent of the worker count; speculated probes past the
    // winner vanish unrecorded.
    const uint32_t probes_consumed = winner == batch ? batch : winner + 1;
    if (options_.campaign != nullptr) {
      // The tracker's virtual clock follows the recorder's discipline but is
      // independent of it: a campaign journal must not change because a
      // recorder happened to be attached too.
      for (uint32_t k = 0; k < probes_consumed; ++k) {
        options_.campaign->AdvanceClock(probe_stats[k].steps);
      }
    }
    if (recorder != nullptr) {
      for (uint32_t k = 0; k < probes_consumed; ++k) {
        const uint64_t begin = recorder->now();
        recorder->AdvanceClock(probe_stats[k].steps);
        recorder->metrics().Add("fleet.runs.probes");
        publisher->PublishVm(probe_stats[k]);
        const bool failing = failures[k].failing_instr != kNoInstr;
        recorder->AddSpan("probe", "phase1", begin, recorder->now(), FlightRecorder::kRunTrack,
                          {NumArg("run_index", base + k),
                           StrArg("outcome", failing ? "failing" : "ok")});
      }
    }
    if (profiler != nullptr) {
      // Same consumed-prefix discipline as the recorder: probes speculated
      // past the winner never reach the profile.
      for (uint32_t k = 0; k < probes_consumed; ++k) {
        profiler->AddRun(probe_profiles[k], MakeProfiledSample(probe_stats[k]));
      }
    }
    if (winner != batch) {
      result->first_failure_found = true;
      result->first_failure = failures[winner];
      *next_run_index = base + winner + 1;
      if (recorder != nullptr) {
        recorder->AddInstant("first_failure", "fleet", FlightRecorder::kControlTrack,
                             {NumArg("run_index", base + winner)});
      }
    }
    base += batch;
  }
}

FleetResult Fleet::Run(const RootCauseCheck& root_cause_check) {
  FleetResult result;
  std::optional<ThreadPool> owned_pool;
  if (options_.shared_pool == nullptr) {
    owned_pool.emplace(options_.jobs);
  }
  ThreadPool& pool = options_.shared_pool != nullptr ? *options_.shared_pool : *owned_pool;
  const uint32_t batch_size = BatchSize(pool);
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

  // --- Phase 1: wait for the first failure in unmonitored production -------
  uint64_t run_index = 0;
  FindFirstFailure(pool, &result, &run_index);
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

    // Freeze: one immutable snapshot of (plan + watchpoint rotation).
    // Clients only ever see snapshots; when refinement below replans the
    // server mid-iteration, the merge loop discards the runs speculated
    // under the stale snapshot and re-freezes, so every consumed run
    // executed under the plan produced by all runs merged before it —
    // exactly the sequential contract, whatever the worker count.
    PlanSnapshot snapshot = server_.Snapshot();
    if (recorder != nullptr) {
      recorder->metrics().SetMax("fleet.watch.rotations",
                                 static_cast<int64_t>(snapshot.rotation_count()));
    }

    bool iteration_done = false;
    uint32_t client = 0;  // index within the iteration; selects the rotation
    uint32_t retries_used = 0;       // against FaultOptions::retry_budget_per_iteration
    uint32_t consecutive_losses = 0;  // drives the exponential backoff
    while (client < options_.runs_per_iteration && !iteration_done) {
      if (snapshot.version() != server_.plan_version()) {
        snapshot = server_.Snapshot();
        // Exactly one re-freeze per replan, whatever the batch size: the
        // merge loop below stops consuming at a version change, so control
        // always returns here before the next run executes.
        if (recorder != nullptr) {
          recorder->metrics().Add("fleet.refreezes");
          recorder->metrics().SetMax("fleet.watch.rotations",
                                     static_cast<int64_t>(snapshot.rotation_count()));
          recorder->AddInstant("refreeze", "fleet", FlightRecorder::kControlTrack,
                               {NumArg("version", server_.plan_version())});
        }
      }
      const uint32_t batch =
          std::min(batch_size, options_.runs_per_iteration - client);

      // Fan out: monitored runs are pure functions of (module, snapshot,
      // run_index), so the pool may execute them in any order. Client-side
      // faults (death, debug-register contention) are part of that function:
      // each run's FaultPlan derives from its run index alone.
      std::vector<MonitoredRun> runs(batch);
      pool.ParallelFor(batch, [&](uint64_t k) {
        const uint64_t index = run_index + k;
        LogRunScope run_scope(static_cast<int64_t>(index));
        RunDegradation degradation;
        if (options_.faults.enabled) {
          const FaultPlan fault = FaultPlan::ForRun(options_.faults, options_.fleet_seed, index);
          if (fault.kill_run) {
            degradation.kill_after_steps = fault.kill_after_steps;
          }
          if (fault.exhaust_watchpoints) {
            degradation.watchpoint_slots = fault.granted_watchpoint_slots;
          }
        }
        runs[k] = RunMonitored(module_, snapshot, client + k, WorkloadFor(index), gist_options,
                               index + 1, options_.max_steps_per_run, degradation);
        GIST_LOG(kDebug) << "monitored run done: " << runs[k].result.stats.steps << " steps, "
                         << (runs[k].trace.failed ? "failing" : "ok");
      });

      // Merge: traces enter the server in run-index order on this thread,
      // with exactly the sequential loop's early-exit checks after each one.
      // Runs speculated past the exit point are discarded before they touch
      // any accounting, so the consumed prefix — and with it the whole
      // FleetResult — is independent of batch size and worker count.
      uint32_t consumed = 0;
      for (uint32_t k = 0;
           k < batch && !iteration_done && snapshot.version() == server_.plan_version(); ++k) {
        MonitoredRun& run = runs[k];
        const uint64_t index = run_index + k;
        ++consumed;

        // Flight recorder: the consumed run advances the virtual clock by
        // its retired instructions and publishes its client-side telemetry,
        // here on the coordinator thread in run-index order.
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
                              {NumArg("run_index", index),
                               NumArg("client", static_cast<uint64_t>(client) + k),
                               StrArg("outcome", outcome)});
          }
        };

        // Simulated production pacing + the run itself.
        result.sim_seconds += PacingSecondsFor(index);
        result.sim_seconds +=
            static_cast<double>(run.trace.baseline_instructions) / (options_.clock_ghz * 1e9);

        // Degradation (DESIGN.md §8): decide whether this run's trace ever
        // reaches the server. All decisions replay the run's FaultPlan, so
        // they are independent of worker count and batch boundaries.
        const FaultPlan fault =
            FaultPlan::ForRun(options_.faults, options_.fleet_seed, index);
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
        bool lost = run.result.killed;  // the client died; nothing was shipped
        double arrival_delay = 0.0;
        if (!lost && fault.delay_result) {
          if (fault.result_delay_seconds > options_.faults.result_timeout_seconds) {
            lost = true;  // the server stopped waiting
          } else {
            arrival_delay = fault.result_delay_seconds;
          }
        }
        std::vector<uint8_t> shipped_bytes;
        if (!lost) {
          // Client-side damage to the PT streams, then the trace travels
          // from client to server over the wire format, exactly as a
          // deployed fleet would ship it — anonymized first when the
          // deployment demands it.
          ApplyPtFaults(fault, &run.trace.pt_buffers);
          if (options_.anonymize_traces) {
            AnonymizeRunTrace(&run.trace);
          }
          shipped_bytes = SerializeRunTrace(run.trace);
          if (options_.faults.enabled) {
            // MTU chunking: a dropped chunk loses the upload; a reorder is
            // repaired by sequence numbers.
            std::vector<WireMessage> chunks =
                SplitWireMessages(shipped_bytes, options_.faults.wire_mtu_bytes);
            std::vector<WireMessage> delivered;
            for (uint32_t chunk :
                 DeliveredChunkOrder(fault, static_cast<uint32_t>(chunks.size()))) {
              delivered.push_back(std::move(chunks[chunk]));
            }
            Result<std::vector<uint8_t>> reassembled =
                ReassembleWireMessages(std::move(delivered));
            if (reassembled.ok()) {
              shipped_bytes = std::move(*reassembled);
            } else {
              lost = true;
            }
          }
        }

        if (lost) {
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
        result.sim_seconds += arrival_delay;

        if (run.trace.baseline_instructions > 0) {
          overhead_sum += GistClientOverheadPercent(cost_model, run.trace.baseline_instructions,
                                                    run.trace.activity);
          ++overhead_samples;
        }
        const uint32_t recurrences_before = server_.failure_recurrences();
        // Bytes that will not deserialize are quarantined like a trace the
        // server's validation rejects: counted, never ingested.
        Result<RunTrace> shipped = DeserializeRunTrace(shipped_bytes);
        const GistServer::TraceIngest ingest = shipped.ok()
                                                   ? server_.AddTrace(std::move(*shipped))
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
        // and let the "developer" judge it. This is what Table 1 counts —
        // the number of failure recurrences consumed until the sketch is
        // good.
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
        const uint32_t iteration_matching =
            server_.failure_recurrences() - recurrences_at_start;
        if (iteration_matching >= options_.min_matching_failures &&
            stats.successful_runs >= options_.min_successful_runs) {
          iteration_done = true;
        }
      }
      run_index += consumed;
      client += consumed;
    }

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
      sample.rotation_count = snapshot.rotation_count();
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
