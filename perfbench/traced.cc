#include "traced.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>
#include <vector>

#include "src/coop/wire.h"
#include "src/hw/perf_model.h"
#include "src/support/check.h"
#include "src/support/rng.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Salt the fleet derives its production-pacing stream with (src/coop/
// fleet.cc). A drift here shows up as a traced/untraced outcome mismatch.
constexpr uint64_t kPacingSalt = 0x70616365'70616365ULL;

// Adds the wall time of its own lifetime to one layer's total.
class Span {
 public:
  explicit Span(double* total) : total_(total), start_(Clock::now()) {}
  ~Span() { *total_ += std::chrono::duration<double>(Clock::now() - start_).count(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double* total_;
  Clock::time_point start_;
};

uint64_t PtBytes(const std::vector<std::vector<uint8_t>>& buffers) {
  uint64_t bytes = 0;
  for (const std::vector<uint8_t>& buffer : buffers) {
    bytes += buffer.size();
  }
  return bytes;
}

}  // namespace

double LayerTally::LayerSeconds() const {
  return server_init_s + probe_s + report_failure_s + replan_s + client_run_s + faults_s +
         wire_s + ingest_s + sketch_s;
}

void LayerTally::Add(const LayerTally& other) {
  server_init_s += other.server_init_s;
  probe_s += other.probe_s;
  report_failure_s += other.report_failure_s;
  replan_s += other.replan_s;
  client_run_s += other.client_run_s;
  faults_s += other.faults_s;
  wire_s += other.wire_s;
  ingest_s += other.ingest_s;
  sketch_s += other.sketch_s;
  total_s += other.total_s;
  probes += other.probes;
  replans += other.replans;
  client_runs += other.client_runs;
  instrs_retired += other.instrs_retired;
  pt_bytes_encoded += other.pt_bytes_encoded;
  watch_traps += other.watch_traps;
  wire_bytes += other.wire_bytes;
  wire_chunks += other.wire_chunks;
  uploads += other.uploads;
  accepted += other.accepted;
  quarantined += other.quarantined;
  pt_bytes_decoded += other.pt_bytes_decoded;
  sketch_builds += other.sketch_builds;
  traces_scanned += other.traces_scanned;
  retained_pt_bytes = std::max(retained_pt_bytes, other.retained_pt_bytes);
}

gist::FleetResult TraceDiagnosis(const Diagnosis& diagnosis, LayerTally* tally) {
  const Clock::time_point start = Clock::now();
  const gist::FleetOptions& options = diagnosis.options;
  const gist::Module& module = *diagnosis.module;
  auto workload_for = [&](uint64_t run_index) {
    gist::Rng rng(gist::DeriveSeed(options.fleet_seed, run_index));
    return diagnosis.generator(run_index, rng);
  };
  auto pacing_for = [&](uint64_t run_index) {
    gist::Rng rng(gist::DeriveSeed(options.fleet_seed ^ kPacingSalt, run_index));
    return options.mean_run_spacing_seconds * rng.NextDouble() * 2.0;
  };
  auto root_cause_found = [&](const gist::FailureSketch& sketch) {
    return std::all_of(diagnosis.root_cause.begin(), diagnosis.root_cause.end(),
                       [&](gist::InstrId id) { return sketch.Contains(id); });
  };
  auto build_sketch = [&](const gist::GistServer& server) {
    ++tally->sketch_builds;
    tally->traces_scanned += server.trace_count();
    Span span(&tally->sketch_s);
    return server.BuildSketch();
  };

  std::optional<gist::GistServer> server_slot;
  {
    Span span(&tally->server_init_s);
    server_slot.emplace(module, options.gist);
  }
  gist::GistServer& server = *server_slot;

  // Phase 1: unmonitored production until the target first fails.
  gist::FleetResult result;
  uint64_t run_index = 0;
  for (uint64_t probe = 0; probe < options.max_first_failure_runs; ++probe) {
    const gist::Workload workload = workload_for(probe);
    gist::RunResult run;
    {
      Span span(&tally->probe_s);
      gist::VmOptions vm_options;
      vm_options.num_cores = options.gist.num_cores;
      vm_options.max_steps = options.max_steps_per_run;
      vm_options.decoded = server.decoded().get();
      gist::Vm vm(module, workload, vm_options);
      run = vm.Run();
    }
    ++tally->probes;
    if (!run.ok() && run.failure.failing_instr != gist::kNoInstr) {
      result.first_failure_found = true;
      result.first_failure = run.failure;
      run_index = probe + 1;
      break;
    }
  }
  if (!result.first_failure_found) {
    tally->total_s = std::chrono::duration<double>(Clock::now() - start).count();
    return result;
  }
  {
    Span span(&tally->report_failure_s);
    server.ReportFailure(result.first_failure);
  }

  // Phase 2: AsT iterations, one monitored run at a time.
  gist::GistOptions run_options = options.gist;
  run_options.collect_profile = false;
  const gist::CostModel cost_model;
  double overhead_sum = 0.0;
  uint64_t overhead_samples = 0;
  for (uint32_t iteration = 0; iteration < options.max_iterations; ++iteration) {
    gist::FleetIterationStats stats;
    stats.iteration = iteration;
    stats.sigma = server.sigma();
    const uint32_t recurrences_at_start = server.failure_recurrences();
    std::optional<gist::PlanSnapshot> snapshot;
    ++tally->replans;
    {
      Span span(&tally->replan_s);
      snapshot.emplace(server.Snapshot());
    }

    bool iteration_done = false;
    uint32_t client = 0;
    uint32_t retries_used = 0;
    uint32_t consecutive_losses = 0;
    for (; client < options.runs_per_iteration && !iteration_done; ++client, ++run_index) {
      if (snapshot->version() != server.plan_version()) {
        ++tally->replans;
        Span span(&tally->replan_s);
        snapshot.emplace(server.Snapshot());
      }
      const uint64_t index = run_index;
      gist::FaultPlan fault;
      {
        Span span(&tally->faults_s);
        fault = gist::FaultPlan::ForRun(options.faults, options.fleet_seed, index);
      }
      gist::RunDegradation degradation;
      if (options.faults.enabled) {
        if (fault.kill_run) {
          degradation.kill_after_steps = fault.kill_after_steps;
        }
        if (fault.exhaust_watchpoints) {
          degradation.watchpoint_slots = fault.granted_watchpoint_slots;
        }
      }
      const gist::Workload workload = workload_for(index);
      gist::MonitoredRun run;
      {
        Span span(&tally->client_run_s);
        run = gist::RunMonitored(module, *snapshot, client, workload, run_options, index + 1,
                                 options.max_steps_per_run, degradation);
      }
      ++tally->client_runs;
      tally->instrs_retired += run.result.stats.steps;
      tally->pt_bytes_encoded += PtBytes(run.trace.pt_buffers);
      tally->watch_traps += run.trace.activity.watch_traps;

      result.sim_seconds += pacing_for(index);
      result.sim_seconds +=
          static_cast<double>(run.trace.baseline_instructions) / (options.clock_ghz * 1e9);

      bool lost = run.result.killed;
      double arrival_delay = 0.0;
      if (!lost && fault.delay_result) {
        if (fault.result_delay_seconds > options.faults.result_timeout_seconds) {
          lost = true;
        } else {
          arrival_delay = fault.result_delay_seconds;
        }
      }
      std::vector<uint8_t> shipped_bytes;
      if (!lost) {
        {
          Span span(&tally->faults_s);
          gist::ApplyPtFaults(fault, &run.trace.pt_buffers);
        }
        Span span(&tally->wire_s);
        shipped_bytes = gist::SerializeRunTrace(run.trace);
        tally->wire_bytes += shipped_bytes.size();
        if (options.faults.enabled) {
          std::vector<gist::WireMessage> chunks =
              gist::SplitWireMessages(shipped_bytes, options.faults.wire_mtu_bytes);
          tally->wire_chunks += chunks.size();
          std::vector<gist::WireMessage> delivered;
          for (uint32_t chunk :
               gist::DeliveredChunkOrder(fault, static_cast<uint32_t>(chunks.size()))) {
            delivered.push_back(std::move(chunks[chunk]));
          }
          gist::Result<std::vector<uint8_t>> reassembled =
              gist::ReassembleWireMessages(std::move(delivered));
          if (reassembled.ok()) {
            shipped_bytes = std::move(*reassembled);
          } else {
            lost = true;
          }
        } else {
          ++tally->wire_chunks;
        }
      }

      if (lost) {
        ++stats.lost_runs;
        if (options.faults.enabled && retries_used < options.faults.retry_budget_per_iteration) {
          const uint32_t exponent = std::min(consecutive_losses, 6u);
          result.sim_seconds +=
              options.faults.retry_backoff_seconds * static_cast<double>(1u << exponent);
          ++retries_used;
          ++stats.retries;
        }
        ++consecutive_losses;
        continue;
      }
      consecutive_losses = 0;
      result.sim_seconds += arrival_delay;

      if (run.trace.baseline_instructions > 0) {
        overhead_sum += gist::GistClientOverheadPercent(
            cost_model, run.trace.baseline_instructions, run.trace.activity);
        ++overhead_samples;
      }
      const uint32_t recurrences_before = server.failure_recurrences();
      std::optional<gist::Result<gist::RunTrace>> shipped;
      {
        Span span(&tally->wire_s);
        shipped.emplace(gist::DeserializeRunTrace(shipped_bytes));
      }
      GIST_CHECK(shipped->ok()) << shipped->error().message();
      const uint64_t upload_pt_bytes = PtBytes((**shipped).pt_buffers);
      gist::GistServer::TraceIngest ingest;
      {
        Span span(&tally->ingest_s);
        ingest = server.AddTrace(std::move(**shipped));
      }
      ++tally->uploads;
      if (ingest != gist::GistServer::TraceIngest::kRejectedForeign) {
        tally->pt_bytes_decoded += upload_pt_bytes;
      }
      if (ingest == gist::GistServer::TraceIngest::kQuarantined) {
        ++tally->quarantined;
        ++stats.quarantined_runs;
        continue;
      }
      if (ingest == gist::GistServer::TraceIngest::kAccepted) {
        ++tally->accepted;
      }
      if (run.result.ok()) {
        ++stats.successful_runs;
      } else {
        ++stats.failing_runs;
      }

      if (server.failure_recurrences() > recurrences_before) {
        gist::Result<gist::FailureSketch> sketch = build_sketch(server);
        if (sketch.ok()) {
          result.sketch = *sketch;
          if (root_cause_found(*sketch)) {
            stats.root_cause_found = true;
            iteration_done = true;
            continue;
          }
        }
      }

      const uint32_t iteration_matching = server.failure_recurrences() - recurrences_at_start;
      if (iteration_matching >= options.min_matching_failures &&
          stats.successful_runs >= options.min_successful_runs) {
        iteration_done = true;
      }
    }

    stats.avg_overhead_percent =
        overhead_samples == 0 ? 0.0 : overhead_sum / static_cast<double>(overhead_samples);
    const uint32_t survivors = stats.successful_runs + stats.failing_runs;
    const uint32_t consumed_runs = survivors + stats.lost_runs + stats.quarantined_runs;
    stats.quorum_met = !options.faults.enabled || consumed_runs == 0 ||
                       static_cast<double>(survivors) >=
                           options.faults.quorum_fraction * static_cast<double>(consumed_runs);
    const bool saw_new_recurrence = server.failure_recurrences() > recurrences_at_start;
    result.failure_recurrences = server.failure_recurrences();
    result.lost_runs += stats.lost_runs;
    result.quarantined_runs += stats.quarantined_runs;
    result.retries += stats.retries;
    result.iterations.push_back(stats);

    if (stats.root_cause_found) {
      result.root_cause_found = true;
      break;
    }
    if (!saw_new_recurrence || !stats.quorum_met) {
      continue;
    }
    if (server.ExhaustedSlice()) {
      break;
    }
    ++tally->replans;
    Span span(&tally->replan_s);
    server.AdvanceAst();
  }

  if (!result.root_cause_found && server.failure_recurrences() > 0) {
    gist::Result<gist::FailureSketch> sketch = build_sketch(server);
    if (sketch.ok()) {
      result.sketch = *sketch;
    }
  }
  result.failure_recurrences = server.failure_recurrences();
  result.avg_overhead_percent =
      overhead_samples == 0 ? 0.0 : overhead_sum / static_cast<double>(overhead_samples);
  result.sigma_final = server.sigma();

  uint64_t retained = 0;
  for (const gist::RunTrace& trace : server.traces()) {
    retained += PtBytes(trace.pt_buffers);
  }
  tally->retained_pt_bytes = retained;
  tally->total_s = std::chrono::duration<double>(Clock::now() - start).count();
  return result;
}

}  // namespace perfbench
