// Regenerates paper Fig. 13 and the §5.3/§6 comparisons: full-tracing
// overhead of a software record/replay system (Mozilla-rr stand-in) vs
// hardware Intel PT, per program; plus the software-PT-simulation overhead
// (§6: 3x–5000x) and the ratio of record/replay to Gist's toggled tracing
// (§5.3: on average Gist is ~166x cheaper than record/replay).

#include <cstdio>

#include "bench/bench_util.h"
#include "src/hw/perf_model.h"
#include "src/pt/tracer.h"
#include "src/replay/recorder.h"
#include "src/support/logging.h"

namespace gist {
namespace {

const char* kApps[] = {"apache-1",   "apache-2",  "apache-3", "apache-4",
                       "cppcheck-1", "cppcheck-2", "curl",     "transmission",
                       "sqlite",     "memcached",  "pbzip2"};

constexpr Word kProductionScale = 20000;

// A representative production-scale workload for the app.
Workload ScaledWorkload(const BugApp& app) {
  Rng rng(99);
  Workload workload = app.MakeWorkload(0, rng);
  if (workload.inputs.size() > kWorkScaleInput) {
    workload.inputs[kWorkScaleInput] = kProductionScale;
  }
  return workload;
}

// Gist's toggled-tracing overhead on the same workload (for the §5.3 ratio).
double GistOverhead(const BugApp& app, const Workload& workload, const CostModel& model) {
  Rng rng(77);
  FailureReport report;
  bool found = false;
  for (uint64_t run = 0; run < 1000 && !found; ++run) {
    Workload probe = app.MakeWorkload(run, rng);
    Vm vm(app.module(), probe, VmOptions{});
    const RunResult result = vm.Run();
    if (!result.ok() && result.failure.failing_instr != kNoInstr) {
      report = result.failure;
      found = true;
    }
  }
  if (!found) {
    return 0.0;
  }
  GistServer server(app.module());
  server.ReportFailure(report);
  MonitoredRun run = RunMonitored(app.module(), server.plan(), workload, GistOptions{}, 0,
                                  10'000'000);
  if (run.trace.baseline_instructions == 0) {
    return 0.0;
  }
  return GistClientOverheadPercent(model, run.trace.baseline_instructions, run.trace.activity);
}

int Main() {
  SetLogLevel(LogLevel::kWarning);
  const CostModel model;

  std::printf("Fig. 13: full-tracing overhead, record/replay (rr) vs Intel PT (percent)\n");
  std::printf("plus software-simulated PT (paper SS6) and Gist's toggled tracing (SS5.3)\n\n");
  std::printf("%-14s %10s %12s %14s %10s\n", "Bug", "Intel PT", "rr", "software PT", "Gist");
  std::printf("%s\n", std::string(66, '-').c_str());

  double sum_pt = 0.0;
  double sum_rr = 0.0;
  double sum_swpt = 0.0;
  double sum_gist = 0.0;
  int count = 0;
  for (const char* name : kApps) {
    auto app = MakeAppByName(name);
    const Workload workload = ScaledWorkload(*app);

    // Full hardware PT tracing (always on, never toggled).
    PtTracer tracer(4, kDefaultPtBufferBytes, /*always_on=*/true);
    VmOptions vm_options;
    vm_options.max_steps = 10'000'000;
    vm_options.observers = {&tracer};
    const RunStats stats = Vm(app->module(), workload, vm_options).Run().stats;
    const double pt = PtFullTraceOverheadPercent(model, stats.retired,
                                                 tracer.total_bytes_generated());

    // Full software record/replay.
    Recording recording = RecordRun(app->module(), workload, 10'000'000);
    const double rr =
        RecordReplayOverheadPercent(model, recording.instructions, recording.mem_accesses);

    // Software-simulated PT (PIN-style per-branch callbacks).
    SwPtStats sw = SimulateSoftwarePt(app->module(), workload, 10'000'000);
    const double swpt = SoftwarePtOverheadPercent(model, sw.instructions, sw.branches);

    const double gist = GistOverhead(*app, workload, model);

    std::printf("%-14s %9.1f%% %11.1f%% %13.1f%% %9.2f%%\n", name, pt, rr, swpt, gist);
    sum_pt += pt;
    sum_rr += rr;
    sum_swpt += swpt;
    sum_gist += gist;
    ++count;
  }

  std::printf("%s\n", std::string(66, '-').c_str());
  const double avg_pt = sum_pt / count;
  const double avg_rr = sum_rr / count;
  const double avg_gist = sum_gist / count;
  std::printf("%-14s %9.1f%% %11.1f%% %13.1f%% %9.2f%%\n", "average", avg_pt, avg_rr,
              sum_swpt / count, avg_gist);
  std::printf("\nrr / Intel PT ratio: %.0fx   (paper: 984%% vs 11%% full tracing)\n",
              avg_rr / avg_pt);
  std::printf("rr / Gist ratio:     %.0fx   (paper: record/replay is ~166x Gist)\n",
              avg_gist > 0 ? avg_rr / avg_gist : 0.0);
  return 0;
}

}  // namespace
}  // namespace gist

int main() { return gist::Main(); }
