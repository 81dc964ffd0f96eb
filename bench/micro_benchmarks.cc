// Micro benchmarks for the substrate layers: PT packet encode/decode
// throughput, backward-slicer and dominator-analysis speed, and raw VM
// interpretation speed. These bound the cost of the offline (server-side)
// stages of Gist.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "src/analysis/slicer.h"
#include "src/apps/app.h"
#include "src/cfg/ticfg.h"
#include "src/core/gist.h"
#include "src/core/statistics.h"
#include "src/obs/campaign.h"
#include "src/pt/decoder.h"
#include "src/pt/tracer.h"
#include "src/support/rng.h"
#include "src/vm/vm.h"

namespace gist {
namespace {

void BM_PtEncodeBranches(benchmark::State& state) {
  Rng rng(1);
  std::vector<bool> outcomes;
  for (int i = 0; i < 4096; ++i) {
    outcomes.push_back(rng.NextChance(1, 2));
  }
  for (auto _ : state) {
    PtBuffer buffer(1 << 20);
    uint8_t bits = 0;
    uint8_t count = 0;
    for (bool taken : outcomes) {
      bits = static_cast<uint8_t>(bits | ((taken ? 1u : 0u) << count));
      if (++count == 6) {
        buffer.AppendTnt(bits, count);
        bits = 0;
        count = 0;
      }
    }
    benchmark::DoNotOptimize(buffer.bytes().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(outcomes.size()));
}
BENCHMARK(BM_PtEncodeBranches);

void BM_PtFullTraceAndDecode(benchmark::State& state) {
  auto app = MakeAppByName("memcached");
  Rng rng(3);
  const Workload workload = app->MakeWorkload(0, rng);
  for (auto _ : state) {
    PtTracer tracer(4, kDefaultPtBufferBytes, /*always_on=*/true);
    VmOptions options;
    options.observers = {&tracer};
    Vm(app->module(), workload, options).Run();
    size_t visits = 0;
    for (CoreId core = 0; core < 4; ++core) {
      auto decoded = DecodePtStream(app->module(), core, tracer.buffer(core).bytes());
      visits += decoded.ok() ? decoded->visits.size() : 0;
    }
    benchmark::DoNotOptimize(visits);
  }
}
BENCHMARK(BM_PtFullTraceAndDecode);

void BM_BackwardSlice(benchmark::State& state) {
  // cppcheck-1 has the deepest interprocedural chain (24 passes).
  auto app = MakeAppByName("cppcheck-1");
  Ticfg ticfg(app->module());
  // Slice from the app's failure point (the deref in the bounds check).
  const InstrId failure = app->ideal_sketch().instrs.back();
  for (auto _ : state) {
    StaticSlice slice = ComputeBackwardSlice(ticfg, failure);
    benchmark::DoNotOptimize(slice.instrs.data());
  }
}
BENCHMARK(BM_BackwardSlice);

void BM_TicfgConstruction(benchmark::State& state) {
  auto app = MakeAppByName("cppcheck-1");
  for (auto _ : state) {
    Ticfg ticfg(app->module());
    benchmark::DoNotOptimize(ticfg.num_nodes());
  }
}
BENCHMARK(BM_TicfgConstruction);

void BM_VmInterpretation(benchmark::State& state) {
  auto app = MakeAppByName("pbzip2");
  Rng rng(5);
  Workload workload = app->MakeWorkload(0, rng);
  workload.inputs[kWorkScaleInput] = 2000;  // ~16k busy-loop instructions
  uint64_t steps = 0;
  for (auto _ : state) {
    Vm vm(app->module(), workload, VmOptions{});
    RunResult result = vm.Run();
    steps += result.stats.steps;
    benchmark::DoNotOptimize(result.stats.steps);
  }
  state.SetItemsProcessed(static_cast<int64_t>(steps));
}
BENCHMARK(BM_VmInterpretation);

void BM_VmInterpretationSharedDecode(benchmark::State& state) {
  // The fleet's configuration: one DecodedModule built up front, every run
  // interprets from it. Isolates per-run decode cost vs BM_VmInterpretation.
  auto app = MakeAppByName("pbzip2");
  DecodedModule decoded(app->module());
  Rng rng(5);
  Workload workload = app->MakeWorkload(0, rng);
  workload.inputs[kWorkScaleInput] = 2000;
  uint64_t steps = 0;
  for (auto _ : state) {
    VmOptions options;
    options.decoded = &decoded;
    Vm vm(app->module(), workload, options);
    RunResult result = vm.Run();
    steps += result.stats.steps;
    benchmark::DoNotOptimize(result.stats.steps);
  }
  state.SetItemsProcessed(static_cast<int64_t>(steps));
}
BENCHMARK(BM_VmInterpretationSharedDecode);

void BM_VmInterpretationProfiled(benchmark::State& state) {
  // BM_VmInterpretationSharedDecode plus a BlockProfile shard attached: the
  // marginal cost of hot-path profiling (DESIGN.md §10, target <= 10%).
  auto app = MakeAppByName("pbzip2");
  DecodedModule decoded(app->module());
  BlockProfile profile;
  Rng rng(5);
  Workload workload = app->MakeWorkload(0, rng);
  workload.inputs[kWorkScaleInput] = 2000;
  uint64_t steps = 0;
  for (auto _ : state) {
    VmOptions options;
    options.decoded = &decoded;
    options.profile = &profile;
    Vm vm(app->module(), workload, options);
    RunResult result = vm.Run();
    steps += result.stats.steps;
    benchmark::DoNotOptimize(result.stats.steps);
  }
  state.SetItemsProcessed(static_cast<int64_t>(steps));
}
BENCHMARK(BM_VmInterpretationProfiled);

void BM_VmWithClientRuntimeAttached(benchmark::State& state) {
  auto app = MakeAppByName("pbzip2");
  Rng rng(5);
  // Find a failure to seed the server, then measure monitored-run speed.
  FailureReport report;
  for (uint64_t run = 0; run < 500; ++run) {
    Workload probe = app->MakeWorkload(run, rng);
    Vm vm(app->module(), probe, VmOptions{});
    RunResult result = vm.Run();
    if (!result.ok()) {
      report = result.failure;
      break;
    }
  }
  GistServer server(app->module());
  server.ReportFailure(report);
  Workload workload = app->MakeWorkload(0, rng);
  workload.inputs[kWorkScaleInput] = 2000;
  uint64_t steps = 0;
  for (auto _ : state) {
    MonitoredRun run = RunMonitored(app->module(), server.plan(), workload);
    steps += run.result.stats.steps;
    benchmark::DoNotOptimize(run.trace.baseline_instructions);
  }
  state.SetItemsProcessed(static_cast<int64_t>(steps));
}
BENCHMARK(BM_VmWithClientRuntimeAttached);

// Synthetic predictor stream shaped like a real campaign: each run carries a
// few dozen predictors drawn from a few hundred recurring candidates, the way
// monitored runs keep revisiting the same slice statements. Shared by the
// interactive benchmark and the JSON/perf-smoke measurement below.
std::vector<std::vector<Predictor>> MakePredictorStream() {
  Rng rng(11);
  std::vector<std::vector<Predictor>> runs;
  for (int run = 0; run < 512; ++run) {
    std::vector<Predictor> predictors;
    for (int j = 0; j < 32; ++j) {
      Predictor p;
      if (rng.NextChance(1, 3)) {
        p.kind = PredictorKind::kValue;
        p.a = static_cast<InstrId>(rng.NextBelow(128));
        p.value = static_cast<Word>(rng.NextBelow(4));
      } else {
        p.kind = PredictorKind::kBranch;
        p.a = static_cast<InstrId>(rng.NextBelow(256));
        p.taken = rng.NextChance(1, 2);
      }
      predictors.push_back(p);
    }
    runs.push_back(std::move(predictors));
  }
  return runs;
}

void BM_StatsIncrementalUpdate(benchmark::State& state) {
  // Per-run cost of the streaming aggregation (DESIGN.md §14): one
  // BehaviorStats::RecordRun per landed run, identity dedup included.
  const std::vector<std::vector<Predictor>> runs = MakePredictorStream();
  uint64_t updates = 0;
  for (auto _ : state) {
    BehaviorStats stats;
    uint64_t run_id = 0;
    for (const std::vector<Predictor>& predictors : runs) {
      ++run_id;
      stats.RecordRun(run_id, predictors, (run_id % 5) == 0);
    }
    updates += runs.size();
    benchmark::DoNotOptimize(stats.runs_recorded());
  }
  state.SetItemsProcessed(static_cast<int64_t>(updates));
}
BENCHMARK(BM_StatsIncrementalUpdate);

// Nanoseconds per BehaviorStats::RecordRun on the synthetic stream, for the
// JSON artifact and the CI perf smoke. The streaming path exists so the
// coordinator can absorb every run as it lands (DESIGN.md §14), so its gate
// is a cushioned ceiling against the committed baseline: a per-update cost
// blow-up — say an accidental full rescan of the tally map per run — fails
// while timer jitter on loaded CI boxes does not.
double MeasureStatsIncrementalUpdateNs(double min_seconds = 0.5) {
  const std::vector<std::vector<Predictor>> runs = MakePredictorStream();
  uint64_t updates = 0;
  const auto start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    BehaviorStats stats;
    uint64_t run_id = 0;
    for (const std::vector<Predictor>& predictors : runs) {
      ++run_id;
      stats.RecordRun(run_id, predictors, (run_id % 5) == 0);
    }
    benchmark::DoNotOptimize(stats.runs_recorded());
    updates += runs.size();
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  } while (elapsed < min_seconds);
  return elapsed * 1e9 / static_cast<double>(updates);
}

// Raw interpreter throughput in the BM_VmInterpretationSharedDecode
// configuration (pbzip2 at work scale 2000 over a shared decode), outside the
// google-benchmark harness, for the JSON artifact and the CI perf smoke.
// Profiled runs attach a reused BlockProfile shard, the hot-path profiler's
// per-run cost (DESIGN.md §10).
class VmThroughputProbe {
 public:
  VmThroughputProbe() : app_(MakeAppByName("pbzip2")), decoded_(app_->module()) {
    Rng rng(5);
    workload_ = app_->MakeWorkload(0, rng);
    workload_.inputs[kWorkScaleInput] = 2000;
    // Warm-up runs (page in code, fault in the module and the shard).
    Run(/*with_profiler=*/false);
    Run(/*with_profiler=*/true);
  }

  // Steps per second over repeated runs until at least `min_seconds` of work.
  double StepsPerSecond(bool with_profiler, double min_seconds) {
    uint64_t steps = 0;
    const auto start = std::chrono::steady_clock::now();
    double elapsed = 0.0;
    do {
      steps += Run(with_profiler);
      elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    } while (elapsed < min_seconds);
    return static_cast<double>(steps) / elapsed;
  }

 private:
  uint64_t Run(bool with_profiler) {
    VmOptions options;
    options.decoded = &decoded_;
    if (with_profiler) {
      options.profile = &profile_;
    }
    return Vm(app_->module(), workload_, options).Run().stats.steps;
  }

  std::unique_ptr<BugApp> app_;
  DecodedModule decoded_;
  BlockProfile profile_;
  Workload workload_;
};

// Profiler cost as a ratio: profiled cost over unprofiled cost, i.e.
// unprofiled throughput / profiled throughput (1.0 = free, 1.10 = 10%
// slower). It is the median over kPairs alternating short off/on pairs (the
// order flips every pair), so a slice that a shared host slows down skews one
// pair's ratio, not the result: one 0.5 s off pass followed by one 0.5 s on
// pass read 1.25-1.46 in four of seven runs on a loaded 4-vCPU VM with no
// code change. By definition the true ratio is >= 1.0 — profiling adds work,
// never removes it — so the measurement clamps there: on a noisy box the
// profiled side can win the timer lottery and the quotient dip below 1.0,
// which would read as a nonsensical "speedup" in the committed artifact (an
// earlier baseline recorded 0.909). The acceptance bound for DESIGN.md §10
// is <= 10%; the perf smoke enforces a cushioned ceiling (1.25, see the
// gate) so a genuinely regressed hot path fails while timer jitter on loaded
// CI boxes does not. The gate direction is one-sided: only ratios ABOVE the
// ceiling fail.
double MeasureProfilerOverheadRatio() {
  constexpr int kPairs = 9;
  constexpr double kSliceSeconds = 0.1;
  VmThroughputProbe probe;
  std::vector<double> ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    double off = 0.0;
    double on = 0.0;
    if (pair % 2 == 0) {
      off = probe.StepsPerSecond(/*with_profiler=*/false, kSliceSeconds);
      on = probe.StepsPerSecond(/*with_profiler=*/true, kSliceSeconds);
    } else {
      on = probe.StepsPerSecond(/*with_profiler=*/true, kSliceSeconds);
      off = probe.StepsPerSecond(/*with_profiler=*/false, kSliceSeconds);
    }
    ratios.push_back(on > 0.0 ? off / on : 1.0);
  }
  std::sort(ratios.begin(), ratios.end());
  return std::max(1.0, ratios[ratios.size() / 2]);
}

// Invariant fleet counters for the CI perf gate: a small recorder-attached
// fleet whose merged metrics are a pure function of (module, options, seed).
// Unlike steps/second these must match the committed baseline EXACTLY — any
// drift means the pipeline's semantics changed, not the machine's speed.
struct InvariantCounters {
  uint64_t instructions_retired = 0;
  uint64_t pt_packets_decoded = 0;
  uint64_t watch_traps = 0;
  // Size of the gist.campaign.v1 journal emitted by the same fleet. The
  // journal is virtual-time clocked and a pure function of (module, options,
  // seed), so its byte count must match the baseline exactly: drift means
  // the observatory's schema or the campaign's convergence trajectory
  // changed, not the machine's speed (DESIGN.md §14).
  uint64_t campaign_journal_bytes = 0;
  // Instructions retired inside fused bodies (DESIGN.md §12). Deterministic
  // like the counters above; a drop to zero means fusion silently
  // disengaged, which no throughput floor catches reliably.
  uint64_t fused_retired = 0;
  // PickNext calls (DESIGN.md §12): scheduler boundaries Run() ran. A fused
  // chain alone among runnable threads settles its boundaries without one,
  // so a slide back to per-quantum picks multiplies this several times over.
  uint64_t scheduler_picks = 0;
  // Events the VM delivered to the client runtimes' batch handlers (DESIGN.md
  // §7): retired events only at PT-stop sites, accesses only at watch sites
  // and armed addresses. A slide back to per-instruction delivery multiplies
  // these by orders of magnitude, which no timing gate catches reliably.
  uint64_t client_retired_deliveries = 0;
  uint64_t client_mem_deliveries = 0;
  // PT streams the server's sketch builds decoded (DESIGN.md §15). Builds
  // lay out the reference run from its ingest-time summary, so with shadow
  // mode off this is 0; a slide back to per-build decodes makes it
  // builds x cores.
  uint64_t sketch_pt_decodes = 0;
  // PT streams ingest walked (DESIGN.md §16): every failing-run stream plus
  // each successful-run stream the memo had not seen under the current plan
  // version. A memo that stops hitting pushes this up to streams uploaded.
  uint64_t ingest_pt_walks = 0;
  // PT streams the server decoded into visit lists (DESIGN.md §15), counted
  // at DecodePt itself. Ingest summarizes failing runs in the summary walk
  // and only a batch or shadow sketch build materializes visits, so with
  // shadow off this is 0; a slide back to decode-then-summarize at ingest
  // makes it every failing stream.
  uint64_t ingest_pt_materialized = 0;
  // RunTraces the server retained (DESIGN.md §15). Sketch builds read only
  // the streaming statistics and the failing-trace summaries, so with shadow
  // mode off the server keeps no trace; a slide back to storing uploads
  // makes it every accepted run.
  uint64_t retained_traces = 0;
};

InvariantCounters MeasureInvariantCounters() {
  FlightRecorder recorder;
  CampaignTracker campaign("apache-2");
  FleetOptions options = DefaultBenchFleetOptions();
  options.runs_per_iteration = 80;
  options.max_iterations = 4;
  options.recorder = &recorder;
  options.campaign = &campaign;
  const AppFleetOutcome outcome = RunAppFleet("apache-2", options);
  InvariantCounters counters;
  counters.retained_traces = outcome.traces.size();
  counters.instructions_retired = recorder.metrics().counter("vm.instructions_retired");
  counters.pt_packets_decoded = recorder.metrics().counter("pt.decode.packets");
  counters.watch_traps = recorder.metrics().counter("hw.watch.traps");
  counters.campaign_journal_bytes = campaign.JournalJson().size();
  counters.fused_retired = recorder.metrics().counter("engine.fused_retired");
  counters.scheduler_picks = recorder.metrics().counter("engine.scheduler_picks");
  counters.client_retired_deliveries =
      recorder.metrics().counter("engine.retired_deliveries");
  counters.client_mem_deliveries = recorder.metrics().counter("engine.mem_deliveries");
  counters.sketch_pt_decodes = recorder.metrics().counter("stats.sketch_pt_decodes");
  counters.ingest_pt_walks = recorder.metrics().counter("pt.decode.walks");
  counters.ingest_pt_materialized = recorder.metrics().counter("pt.decode.materialized");
  return counters;
}

std::string ParsePerfSmokeFlag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    constexpr std::string_view kPrefix = "--perf-smoke=";
    if (arg.substr(0, kPrefix.size()) == kPrefix) {
      return std::string(arg.substr(kPrefix.size()));
    }
  }
  return std::string();
}

bool ParsePerfSmokeStrictFlag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--perf-smoke-strict") {
      return true;
    }
  }
  return false;
}

// How a measurement must relate to its committed BENCH_interp.json baseline.
enum class GateKind {
  kFloor,        // measured >= baseline * tolerance
  kCeiling,      // measured <= baseline * tolerance
  kAbsCeiling,   // measured <= tolerance; reads no baseline
  kExact,        // measured == baseline: a deterministic work count
};

struct Gate {
  const char* key;
  std::function<double()> measure;
  GateKind kind;
  double tolerance = 0.0;
};

// The perf-smoke table: every key `--emit-json` writes and `--perf-smoke`
// checks. Throughput gates are cushioned so timer jitter on loaded CI boxes
// cannot flake them while a real regression still fails; the work counts are
// exact, because any drift there is a semantic change, not machine speed.
std::vector<Gate> PerfSmokeGates() {
  // The invariant counters come from one fleet; measure it once.
  auto counters = std::make_shared<std::optional<InvariantCounters>>();
  auto counter = [counters](uint64_t InvariantCounters::*field) {
    return [counters, field] {
      if (!counters->has_value()) {
        *counters = MeasureInvariantCounters();
      }
      return static_cast<double>((**counters).*field);
    };
  };
  return {
      // Interpreter throughput: fail on a >30% regression.
      {"vm_interp_steps_per_sec",
       [] { return VmThroughputProbe().StepsPerSecond(/*with_profiler=*/false, 1.0); },
       GateKind::kFloor, 0.7},
      // Hot-path profiler (DESIGN.md §10): the design target is <= 10%
      // slowdown; the ceiling allows 25%. The ratio is clamped to >= 1.0 at
      // measurement, so only slowdowns can fail.
      {"vm_profiler_overhead_ratio", MeasureProfilerOverheadRatio, GateKind::kAbsCeiling, 1.25},
      // Streaming statistics (DESIGN.md §14): per-update cost within 2x of
      // the baseline. An asymptotic regression (per-run work growing with
      // accumulated state) overshoots by orders of magnitude.
      {"stats_incremental_update_ns", [] { return MeasureStatsIncrementalUpdateNs(); },
       GateKind::kCeiling, 2.0},
      {"obs_instructions_retired", counter(&InvariantCounters::instructions_retired),
       GateKind::kExact},
      {"obs_pt_packets_decoded", counter(&InvariantCounters::pt_packets_decoded),
       GateKind::kExact},
      {"obs_watch_traps", counter(&InvariantCounters::watch_traps), GateKind::kExact},
      {"campaign_journal_bytes", counter(&InvariantCounters::campaign_journal_bytes),
       GateKind::kExact},
      {"vm_fused_retired", counter(&InvariantCounters::fused_retired), GateKind::kExact},
      {"vm_scheduler_picks", counter(&InvariantCounters::scheduler_picks), GateKind::kExact},
      {"client_retired_deliveries", counter(&InvariantCounters::client_retired_deliveries),
       GateKind::kExact},
      {"client_mem_deliveries", counter(&InvariantCounters::client_mem_deliveries),
       GateKind::kExact},
      {"sketch_pt_decodes", counter(&InvariantCounters::sketch_pt_decodes), GateKind::kExact},
      {"ingest_pt_walks", counter(&InvariantCounters::ingest_pt_walks), GateKind::kExact},
      {"ingest_pt_materialized", counter(&InvariantCounters::ingest_pt_materialized),
       GateKind::kExact},
      {"server_retained_traces", counter(&InvariantCounters::retained_traces),
       GateKind::kExact},
  };
}

// Checks one gate against `baseline`; returns false when it fails. Without a
// baseline the gate is skipped, or fails under --perf-smoke-strict so a
// deleted or corrupted artifact cannot silently turn the gate off.
bool CheckGate(const Gate& gate, const std::map<std::string, double>& baseline,
               const std::string& smoke_path, bool strict) {
  const auto it = baseline.find(gate.key);
  if (gate.kind != GateKind::kAbsCeiling && it == baseline.end()) {
    if (strict) {
      std::fprintf(stderr, "perf smoke FAILED: no %s baseline in %s (--perf-smoke-strict)\n",
                   gate.key, smoke_path.c_str());
      return false;
    }
    std::fprintf(stderr, "perf smoke: no %s in %s; skipping gate\n", gate.key,
                 smoke_path.c_str());
    return true;
  }
  const double value = gate.measure();
  double bound = gate.tolerance;
  bool ok = true;
  const char* relation = "";
  switch (gate.kind) {
    case GateKind::kFloor:
      bound = it->second * gate.tolerance;
      ok = value >= bound;
      relation = "floor";
      break;
    case GateKind::kCeiling:
      bound = it->second * gate.tolerance;
      ok = value <= bound;
      relation = "ceiling";
      break;
    case GateKind::kAbsCeiling:
      ok = value <= bound;
      relation = "ceiling";
      break;
    case GateKind::kExact:
      bound = it->second;
      ok = static_cast<uint64_t>(value) == static_cast<uint64_t>(bound);
      relation = "must equal";
      break;
  }
  std::printf("perf smoke: %s %.6g (%s %.6g)\n", gate.key, value, relation, bound);
  if (!ok) {
    std::fprintf(stderr, "perf smoke FAILED: %s = %.6g, %s %.6g\n", gate.key, value, relation,
                 bound);
  }
  return ok;
}

int Main(int argc, char** argv) {
  const std::string emit_path = ParseEmitJsonFlag(argc, argv, "BENCH_interp.json");
  const std::string smoke_path = ParsePerfSmokeFlag(argc, argv);
  const bool smoke_strict = ParsePerfSmokeStrictFlag(argc, argv);

  if (!emit_path.empty()) {
    std::map<std::string, double> values;
    for (const Gate& gate : PerfSmokeGates()) {
      values[gate.key] = gate.measure();
      std::printf("%s: %.6g -> %s\n", gate.key, values[gate.key], emit_path.c_str());
    }
    if (!UpdateBenchJson(emit_path, values)) {
      std::fprintf(stderr, "cannot write %s\n", emit_path.c_str());
      return 1;
    }
    return 0;
  }

  if (!smoke_path.empty()) {
    const std::map<std::string, double> baseline = ReadBenchJson(smoke_path);
    bool ok = true;
    for (const Gate& gate : PerfSmokeGates()) {
      ok = CheckGate(gate, baseline, smoke_path, smoke_strict) && ok;
    }
    if (!ok) {
      return 1;
    }
    std::printf("perf smoke OK\n");
    return 0;
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace
}  // namespace gist

int main(int argc, char** argv) { return gist::Main(argc, argv); }
