// gist — command-line driver for the failure-sketching library.
//
// Usage:
//   gist run <program.gir> [--seed N] [--inputs a,b,c]
//       Execute a MiniIR program once and report the outcome. Without
//       --inputs, each run draws small random inputs from its seed (so
//       seed sweeps exercise input-dependent bugs too).
//   gist slice <program.gir> [--seed N] [--inputs a,b,c]
//       Find a failing run (sweeping seeds when the given one passes), then
//       print the failure report and the static backward slice.
//   gist trace <program.gir> [--seed N] [--inputs a,b,c]
//       Run under full Intel PT tracing; dump per-core packet streams and
//       the decoded visits.
//   gist diagnose <program.gir> [--runs N] [--inputs a,b,c]
//       Full Gist loop over seeds 1..N as the production fleet; print the
//       failure sketch.
//   gist apps
//       List the bundled bug reproductions.
//   gist diagnose-app <name> [--fleet-seed N] [--jobs N]
//       Run the cooperative fleet on a bundled bug and print its sketch.
//       --jobs picks the worker-thread count (0 = all cores, at most 256);
//       the result is identical for every value. A numeric flag that is not
//       a plain decimal number in range is a usage error (exit 2).
//   gist fix-app <name> [--fleet-seed N] [--jobs N]
//       Diagnose a bundled bug, synthesize a fix from its sketch, and
//       validate the fix against production workloads.
//   gist dump-app <name>
//       Print a bundled bug's MiniIR module as parseable text (pipe it to a
//       .gir file to experiment with the generic commands).
//   gist profdiff <baseline.json> <current.json> [--top N] [--max-drift-permille P]
//       Diff two deterministic profile exports (--profile-json); exit 1 when
//       any block's retired count drifts past the threshold. tools/ci.sh
//       runs this as the perf gate against the committed BENCH_profile.json.
//   gist status <campaign.json>
//       Render a --campaign-json export (gist.campaign.v1) as the live
//       diagnosis dashboard: per-iteration convergence rows plus the current
//       trend and ETA bucket.
//   gist corpus gen --out DIR [--seed N] [--count N] [--families a,b,c]
//       Generate a seeded failure corpus: MiniIR programs from the seven bug
//       templates, each paired with its gist.manifest.v1 ground truth.
//   gist corpus run [--dir DIR | --seed N --count N] [--jobs N] [--tier T]
//       [--chaos] [--score-json PATH]
//       Run the full diagnosis pipeline over a corpus and grade every sketch
//       against its manifest. With --dir, the corpus is regenerated from the
//       index and the on-disk artifacts are byte-verified first.
//   gist corpus score ... --baseline BENCH_corpus.json [--write-baseline P]
//       Like run, then gate the accuracy metrics against a committed
//       baseline (strict: a missing baseline or metric fails).
//
// Programs are MiniIR text files (see src/ir/parser.h for the grammar).

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "src/apps/app.h"
#include "src/apps/app_util.h"
#include "src/coop/fleet.h"
#include "src/corpus/corpus.h"
#include "src/corpus/score.h"
#include "src/core/gist.h"
#include "src/ir/parser.h"
#include "src/obs/campaign.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/profiler.h"
#include "src/pt/dump.h"
#include "src/pt/tracer.h"
#include "src/support/logging.h"
#include "src/support/rng.h"
#include "src/support/str.h"
#include "src/support/thread_pool.h"
#include "src/transform/fix_synthesis.h"

namespace gist {
namespace {

struct CliOptions {
  std::string path;
  uint64_t seed = 1;
  uint64_t runs = 500;
  uint64_t fleet_seed = 1;
  uint64_t jobs = 1;
  std::vector<Word> inputs;
  TelemetryExportOptions exports;  // shared --*-json export surface (app_util.h)
  std::string log_level;     // debug|info|warning|error
  std::string tier;          // fast|ref dispatch tier (DESIGN.md §12)
};

int Usage() {
  std::fprintf(stderr,
               "usage: gist <run|slice|trace|diagnose> <program.gir> "
               "[--seed N] [--runs N] [--inputs a,b,c]\n"
               "       gist apps\n"
               "       gist diagnose-app <name> [--fleet-seed N] [--jobs N]\n"
               "       gist fix-app <name> [--fleet-seed N] [--jobs N]\n"
               "       gist dump-app <name>\n"
               "       gist profdiff <baseline.json> <current.json> [--top N] "
               "[--max-drift-permille P]\n"
               "       gist status <campaign.json>\n"
               "       gist corpus gen --out DIR [--seed N] [--count N] [--families a,b,c]\n"
               "       gist corpus run [--dir DIR | --seed N --count N] [--jobs N]\n"
               "           [--tier fast|ref] [--chaos] [--fleet-seed N]\n"
               "           [--score-json PATH]\n"
               "       gist corpus score <run flags> --baseline BENCH_corpus.json\n"
               "           [--write-baseline PATH]\n"
               "common flags:\n"
               "  --log-level debug|info|warning|error   stderr verbosity (default info)\n"
               "  --tier fast|ref         monitored-run dispatch (default fast, which runs\n"
               "                          fused block bodies; ref is the always-dispatch\n"
               "                          oracle — results are byte-identical)\n"
               "  --metrics-json <path>   write the deterministic metrics snapshot\n"
               "                          (diagnose/diagnose-app/fix-app/corpus run|score)\n"
               "  --trace-json <path>     write the virtual-time span trace in Chrome\n"
               "                          trace-event format (diagnose-app/fix-app/corpus)\n"
               "  --profile-json <path>   write the deterministic hot-path profile\n"
               "                          (gist.profile.v1; diagnose-app/fix-app)\n"
               "  --profile-collapsed <path>  write collapsed flamegraph stacks\n"
               "                          (app;function;block count per line)\n"
               "  --campaign-json <path>  write the sketch-convergence journal\n"
               "                          (gist.campaign.v1; diagnose/diagnose-app/fix-app —\n"
               "                          render it with `gist status`)\n");
  return 2;
}

// Applies a --tier value (none: keep `*tier`); false (with a message) on an
// unknown tier name.
bool ApplyTier(const std::string& text, ExecTier* tier) {
  if (text.empty() || ParseExecTier(text, tier)) {
    return true;
  }
  std::fprintf(stderr, "unknown tier '%s' (expected fast or ref)\n", text.c_str());
  return false;
}

// Applies a --log-level value (none: keep the default); false (with a
// message) on an unknown level.
bool ApplyLogLevel(const std::string& text) {
  if (text.empty()) {
    return true;
  }
  LogLevel level;
  if (!ParseLogLevel(text, &level)) {
    std::fprintf(stderr, "error: bad --log-level '%s' (want debug|info|warning|error)\n",
                 text.c_str());
    return false;
  }
  SetLogLevel(level);
  return true;
}

bool ParseArgs(int argc, char** argv, int first, CliOptions* options) {
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto next_value = [&](uint64_t* out, uint64_t max = UINT64_MAX) {
      return i + 1 < argc && ParseU64(argv[++i], max, out);
    };
    switch (ParseTelemetryExportFlag(argc, argv, &i, &options->exports)) {
      case TelemetryFlagParse::kConsumed:
        continue;
      case TelemetryFlagParse::kMissingValue:
        return false;
      case TelemetryFlagParse::kNotTelemetry:
        break;
    }
    if (arg == "--seed") {
      if (!next_value(&options->seed)) {
        return false;
      }
    } else if (arg == "--runs") {
      if (!next_value(&options->runs)) {
        return false;
      }
    } else if (arg == "--fleet-seed") {
      if (!next_value(&options->fleet_seed)) {
        return false;
      }
    } else if (arg == "--jobs") {
      if (!next_value(&options->jobs, kMaxPoolThreads)) {
        return false;
      }
    } else if (arg == "--inputs") {
      if (i + 1 >= argc) {
        return false;
      }
      for (std::string_view piece : SplitNonEmpty(argv[++i], ',')) {
        int64_t input = 0;
        if (!ParseI64(piece, &input)) {
          return false;
        }
        options->inputs.push_back(input);
      }
    } else if (arg == "--log-level") {
      if (i + 1 >= argc) {
        return false;
      }
      options->log_level = argv[++i];
    } else if (arg == "--tier") {
      if (i + 1 >= argc) {
        return false;
      }
      options->tier = argv[++i];
    } else if (options->path.empty()) {
      options->path = std::string(arg);
    } else {
      return false;
    }
  }
  return !options->path.empty();
}

// Reads `path` into `*bytes`; false when it cannot be opened or read (a
// directory opens but does not read).
bool ReadFileBytes(const std::string& path, std::string* bytes) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return false;
  }
  bytes->clear();
  char buffer[1 << 14];
  size_t read = 0;
  while ((read = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    bytes->append(buffer, read);
  }
  const bool ok = std::ferror(file) == 0;
  std::fclose(file);
  return ok;
}

Result<std::unique_ptr<Module>> LoadProgram(const std::string& path) {
  std::string text;
  if (!ReadFileBytes(path, &text)) {
    return Error("cannot read " + path);
  }
  return ParseModule(text);
}

Workload MakeWorkload(const CliOptions& options, uint64_t seed) {
  Workload workload;
  workload.schedule_seed = seed;
  if (!options.inputs.empty()) {
    workload.inputs = options.inputs;
  } else {
    // No --inputs given: each run draws small random inputs from its seed so
    // input-dependent bugs manifest across the sweep.
    Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    for (int i = 0; i < 4; ++i) {
      workload.inputs.push_back(static_cast<Word>(rng.NextBelow(4)));
    }
  }
  return workload;
}

void PrintOutcome(const RunResult& result) {
  if (result.ok()) {
    std::printf("exit: ok (%llu steps", static_cast<unsigned long long>(result.stats.steps));
    if (!result.outputs.empty()) {
      std::printf("; output:");
      for (Word value : result.outputs) {
        std::printf(" %lld", static_cast<long long>(value));
      }
    }
    std::printf(")\n");
  } else {
    std::printf("exit: FAILURE — %s\n", result.failure.message.c_str());
  }
}

int CmdRun(const CliOptions& options) {
  auto module = LoadProgram(options.path);
  if (!module.ok()) {
    std::fprintf(stderr, "error: %s\n", module.error().message().c_str());
    return 1;
  }
  Vm vm(**module, MakeWorkload(options, options.seed), VmOptions{});
  PrintOutcome(vm.Run());
  return 0;
}

// Sweeps seeds from options.seed until the program fails; false if it never does.
bool FindFailure(const Module& module, const CliOptions& options, FailureReport* report,
                 uint64_t* failing_seed) {
  for (uint64_t seed = options.seed; seed < options.seed + options.runs; ++seed) {
    Vm vm(module, MakeWorkload(options, seed), VmOptions{});
    RunResult result = vm.Run();
    if (!result.ok() && result.failure.failing_instr != kNoInstr) {
      *report = result.failure;
      *failing_seed = seed;
      return true;
    }
  }
  return false;
}

int CmdSlice(const CliOptions& options) {
  auto module = LoadProgram(options.path);
  if (!module.ok()) {
    std::fprintf(stderr, "error: %s\n", module.error().message().c_str());
    return 1;
  }
  FailureReport report;
  uint64_t failing_seed = 0;
  if (!FindFailure(**module, options, &report, &failing_seed)) {
    std::printf("no failure in %llu runs\n", static_cast<unsigned long long>(options.runs));
    return 1;
  }
  std::printf("failure at seed %llu: %s\n", static_cast<unsigned long long>(failing_seed),
              report.message.c_str());

  Ticfg ticfg(**module);
  StaticSlice slice = ComputeBackwardSlice(ticfg, report.failing_instr);
  std::printf("static backward slice (%zu statements, failure first):\n", slice.instrs.size());
  for (InstrId id : slice.instrs) {
    const Instruction& instr = (*module)->instr(id);
    std::printf("  [%4u] %-18s %s\n", id, instr.loc.function.c_str(),
                instr.loc.text.empty() ? InstructionToString(instr).c_str()
                                       : instr.loc.text.c_str());
  }

  // The instrumentation Gist would ship for the initial AsT window.
  GistServer server(**module);
  server.ReportFailure(report);
  const InstrumentationPlan& plan = server.plan();
  std::printf("\ninstrumentation plan for the initial window (sigma=%u):\n", server.sigma());
  std::printf("  PT start blocks:");
  for (const auto& [function, block] : plan.pt_start_blocks) {
    std::printf(" %s:^%s", (*module)->function(function).name().c_str(),
                (*module)->function(function).block(block).label().c_str());
  }
  std::printf("\n  PT stop after:");
  for (InstrId id : plan.pt_stop_instrs) {
    std::printf(" [%u]", id);
  }
  std::printf("\n  watched accesses:");
  for (InstrId id : plan.watch_instrs) {
    std::printf(" [%u]", id);
  }
  std::printf("\n  static watch addresses: %zu; dynamic arm sites: %zu\n",
              plan.static_watch_addrs.size(), plan.arm_after.size() + plan.arm_before.size());
  return 0;
}

int CmdTrace(const CliOptions& options) {
  auto module = LoadProgram(options.path);
  if (!module.ok()) {
    std::fprintf(stderr, "error: %s\n", module.error().message().c_str());
    return 1;
  }
  PtTracer tracer(4, kDefaultPtBufferBytes, /*always_on=*/true);
  VmOptions vm_options;
  vm_options.observers = {&tracer};
  Vm vm(**module, MakeWorkload(options, options.seed), vm_options);
  PrintOutcome(vm.Run());
  tracer.FlushAllPending();

  for (CoreId core = 0; core < tracer.num_cores(); ++core) {
    const auto& bytes = tracer.buffer(core).bytes();
    if (bytes.empty()) {
      continue;
    }
    std::printf("\n=== core %u: %zu packet bytes ===\n", core, bytes.size());
    std::printf("%s", DumpPtStream(**module, bytes).c_str());
    Result<DecodedCoreTrace> decoded = DecodePtStream(**module, core, bytes);
    if (decoded.ok()) {
      std::printf("%s", DumpDecodedTrace(**module, *decoded).c_str());
    } else {
      std::printf("decode error: %s\n", decoded.error().message().c_str());
    }
  }
  return 0;
}

int CmdDiagnose(const CliOptions& options) {
  auto module = LoadProgram(options.path);
  if (!module.ok()) {
    std::fprintf(stderr, "error: %s\n", module.error().message().c_str());
    return 1;
  }
  FailureReport report;
  uint64_t failing_seed = 0;
  if (!FindFailure(**module, options, &report, &failing_seed)) {
    std::printf("no failure in %llu runs\n", static_cast<unsigned long long>(options.runs));
    return 1;
  }

  GistOptions gist_options;
  gist_options.title = options.path;
  if (!ApplyTier(options.tier, &gist_options.tier)) {
    return 2;
  }
  GistServer server(**module, gist_options);
  server.ReportFailure(report);
  CampaignTracker campaign(options.path);

  // Run the production fleet until the window stops growing, then print.
  // Every monitored run gets a fresh run identity: the same seed re-executes
  // under each AsT window, and the server's run-identity dedup must see those
  // as distinct runs, not duplicate uploads.
  uint64_t next_run_id = 1;
  for (;;) {
    uint32_t failing = 0;
    uint32_t successful = 0;
    uint32_t quarantined = 0;
    for (uint64_t seed = options.seed; seed < options.seed + options.runs; ++seed) {
      MonitoredRun run = RunMonitored(**module, server.plan(), MakeWorkload(options, seed),
                                      gist_options, next_run_id++);
      campaign.AdvanceClock(run.result.stats.steps);
      const bool run_failed = run.trace.failed;
      switch (server.AddTrace(std::move(run.trace))) {
        case GistServer::TraceIngest::kAccepted:
          ++(run_failed ? failing : successful);
          break;
        case GistServer::TraceIngest::kQuarantined:
          ++quarantined;
          break;
        case GistServer::TraceIngest::kRejectedForeign:
        case GistServer::TraceIngest::kDuplicate:
          break;
      }
    }
    if (options.exports.wants_campaign()) {
      const Result<FailureSketch> iteration_sketch = server.BuildSketch();
      CampaignIterationSample sample;
      FillCampaignSample(server, iteration_sketch.ok() ? &*iteration_sketch : nullptr, &sample);
      sample.iteration = server.ast_iteration();
      sample.sigma = server.sigma();
      sample.virtual_end = campaign.now();
      sample.failing_runs = failing;
      sample.successful_runs = successful;
      sample.quarantined_runs = quarantined;
      sample.watchpoint_slots = gist_options.watchpoint_slots;
      campaign.RecordIteration(std::move(sample));
    }
    if (server.ExhaustedSlice()) {
      break;
    }
    server.AdvanceAst();
  }

  Result<FailureSketch> sketch = server.BuildSketch();
  if (!sketch.ok()) {
    std::fprintf(stderr, "no sketch: %s\n", sketch.error().message().c_str());
    return 1;
  }
  std::printf("%s", RenderFailureSketch(**module, *sketch).c_str());
  // `diagnose` drives the server directly (no fleet, no flight recorder), so
  // --metrics-json means the server's own registry here.
  if (!options.exports.metrics_json.empty() &&
      !WriteTelemetryFile(options.exports.metrics_json, server.metrics().ToJson())) {
    return 1;
  }
  TelemetryExportOptions rest = options.exports;
  rest.metrics_json.clear();
  if (!ExportTelemetry(rest, nullptr, nullptr, &campaign)) {
    return 1;
  }
  return 0;
}

int CmdApps() {
  for (const auto& app : MakeAllApps()) {
    const BugInfo& info = app->info();
    std::printf("%-14s %s %s, bug %s — %s\n", info.name.c_str(), info.software.c_str(),
                info.version.c_str(), info.bug_id.c_str(), info.kind.c_str());
  }
  return 0;
}

int CmdDiagnoseApp(const CliOptions& options) {
  auto app = MakeAppByName(options.path);
  if (app == nullptr) {
    std::fprintf(stderr, "unknown app '%s' (try `gist apps`)\n", options.path.c_str());
    return 1;
  }
  FlightRecorder recorder;
  HotPathProfiler profiler;
  CampaignTracker campaign(app->info().name);
  FleetOptions fleet_options;
  fleet_options.fleet_seed = options.fleet_seed;
  fleet_options.jobs = static_cast<uint32_t>(options.jobs);
  fleet_options.gist.title = app->info().name;
  fleet_options.recorder = &recorder;
  if (!ApplyTier(options.tier, &fleet_options.gist.tier)) {
    return 2;
  }
  if (options.exports.wants_profiler()) {
    fleet_options.profiler = &profiler;
  }
  if (options.exports.wants_campaign()) {
    fleet_options.campaign = &campaign;
  }
  Fleet fleet(app->module(),
              [&](uint64_t ri, Rng& rng) { return app->MakeWorkload(ri, rng); }, fleet_options);
  const std::vector<InstrId>& root_cause = app->root_cause_instrs();
  FleetResult result = fleet.Run([&](const FailureSketch& sketch) {
    for (InstrId id : root_cause) {
      if (!sketch.Contains(id)) {
        return false;
      }
    }
    return true;
  });
  if (!ExportTelemetry(options.exports, &recorder, &profiler, &campaign)) {
    return 1;
  }
  if (!result.first_failure_found) {
    std::printf("the bug never manifested\n");
    return 1;
  }
  std::printf("%u failure recurrences, final sigma %u, root cause %s\n\n",
              result.failure_recurrences, result.sigma_final,
              result.root_cause_found ? "FOUND" : "not isolated");
  RenderOptions render;
  render.ideal = &app->ideal_sketch();
  std::printf("%s", RenderFailureSketch(app->module(), result.sketch, render).c_str());
  return result.root_cause_found ? 0 : 1;
}

int CmdDumpApp(const CliOptions& options) {
  auto app = MakeAppByName(options.path);
  if (app == nullptr) {
    std::fprintf(stderr, "unknown app '%s' (try `gist apps`)\n", options.path.c_str());
    return 1;
  }
  std::printf("; %s — %s %s, bug %s (%s)\n", app->info().name.c_str(),
              app->info().software.c_str(), app->info().version.c_str(),
              app->info().bug_id.c_str(), app->info().kind.c_str());
  std::printf("%s", app->module().ToString().c_str());
  return 0;
}

int CmdFixApp(const CliOptions& options) {
  auto app = MakeAppByName(options.path);
  if (app == nullptr) {
    std::fprintf(stderr, "unknown app '%s' (try `gist apps`)\n", options.path.c_str());
    return 1;
  }
  FlightRecorder recorder;
  HotPathProfiler profiler;
  CampaignTracker campaign(app->info().name);
  FleetOptions fleet_options;
  fleet_options.fleet_seed = options.fleet_seed;
  fleet_options.jobs = static_cast<uint32_t>(options.jobs);
  fleet_options.gist.title = app->info().name;
  fleet_options.recorder = &recorder;
  if (!ApplyTier(options.tier, &fleet_options.gist.tier)) {
    return 2;
  }
  if (options.exports.wants_profiler()) {
    fleet_options.profiler = &profiler;
  }
  if (options.exports.wants_campaign()) {
    fleet_options.campaign = &campaign;
  }
  Fleet fleet(app->module(),
              [&](uint64_t ri, Rng& rng) { return app->MakeWorkload(ri, rng); }, fleet_options);
  const std::vector<InstrId>& root_cause = app->root_cause_instrs();
  FleetResult result = fleet.Run([&](const FailureSketch& sketch) {
    for (InstrId id : root_cause) {
      if (!sketch.Contains(id)) {
        return false;
      }
    }
    return true;
  });
  if (!ExportTelemetry(options.exports, &recorder, &profiler, &campaign)) {
    return 1;
  }
  if (!result.root_cause_found) {
    std::printf("diagnosis incomplete; cannot synthesize a fix\n");
    return 1;
  }
  Result<SynthesizedFix> fix = SynthesizeFix(app->module(), result.sketch);
  if (!fix.ok()) {
    std::printf("no fix synthesized: %s\n", fix.error().message().c_str());
    return 1;
  }
  std::printf("synthesized: %s\n", fix->description.c_str());

  const uint64_t target_hash = result.first_failure.MatchHash();
  Rng rng(4321);
  int before = 0;
  int after = 0;
  constexpr int kValidationRuns = 400;
  for (int i = 0; i < kValidationRuns; ++i) {
    Workload workload = app->MakeWorkload(static_cast<uint64_t>(i), rng);
    {
      Vm vm(app->module(), workload, VmOptions{});
      RunResult run = vm.Run();
      before += !run.ok() && run.failure.MatchHash() == target_hash;
    }
    {
      Vm vm(*fix->module, workload, VmOptions{});
      RunResult run = vm.Run();
      after += !run.ok() && run.failure.MatchHash() == target_hash;
    }
  }
  std::printf("target-failure recurrences across %d workloads: %d before fix, %d after fix\n",
              kValidationRuns, before, after);
  return after == 0 && before > 0 ? 0 : 1;
}

// `gist profdiff baseline.json current.json [--top N] [--max-drift-permille P]`
// — the CI perf gate. Exit 0: within thresholds; 1: drift or parse failure;
// 2: usage error.
int CmdProfDiff(int argc, char** argv) {
  std::vector<std::string> paths;
  ProfileDiffOptions diff_options;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--top") {
      if (i + 1 >= argc) {
        return Usage();
      }
      uint64_t top_n = 0;
      if (!ParseU64(argv[++i], UINT32_MAX, &top_n)) {
        return Usage();
      }
      diff_options.top_n = static_cast<uint32_t>(top_n);
    } else if (arg == "--max-drift-permille") {
      if (i + 1 >= argc || !ParseU64(argv[++i], UINT64_MAX, &diff_options.max_drift_permille)) {
        return Usage();
      }
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else {
      paths.emplace_back(arg);
    }
  }
  if (paths.size() != 2) {
    return Usage();
  }
  std::string contents[2];
  for (int i = 0; i < 2; ++i) {
    std::ifstream file(paths[i], std::ios::binary);
    if (!file) {
      std::fprintf(stderr, "error: cannot open %s\n", paths[i].c_str());
      return 1;
    }
    std::ostringstream text;
    text << file.rdbuf();
    contents[i] = text.str();
  }
  const ProfileDiffResult diff = DiffProfiles(contents[0], contents[1], diff_options);
  if (!diff.parsed) {
    std::fprintf(stderr, "profdiff: %s\n", diff.error.c_str());
    return 1;
  }
  std::printf("%s", diff.report.c_str());
  std::printf("profdiff: %s\n", diff.ok ? "OK" : "DRIFT");
  return diff.ok ? 0 : 1;
}

// Returns the first position at or after `pos` that is not whitespace.
size_t SkipSpace(const std::string& text, size_t pos) {
  while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) {
    ++pos;
  }
  return pos;
}

// Parses the flat JSON object at `*pos` (leading whitespace allowed) and
// moves `*pos` past its closing brace. Values are strings, which are
// skipped, or unsigned decimal integers, which land in `*out`. Returns false
// on anything else — a sign, a fraction, a number above UINT64_MAX, nesting,
// or a truncated object — so a damaged journal is reported, not misread.
bool ParseFlatNumberJson(const std::string& text, size_t* pos,
                         std::map<std::string, uint64_t>* out) {
  size_t i = *pos;
  auto skip_space = [&] { i = SkipSpace(text, i); };
  // Moves `i` past the string starting at it; its raw text (escapes kept)
  // goes to `*value`.
  auto read_string = [&](std::string* value) {
    if (i >= text.size() || text[i] != '"') {
      return false;
    }
    const size_t begin = ++i;
    while (i < text.size() && text[i] != '"') {
      i += text[i] == '\\' ? 2 : 1;
    }
    if (i >= text.size()) {
      return false;
    }
    value->assign(text, begin, i - begin);
    ++i;
    return true;
  };
  skip_space();
  if (i >= text.size() || text[i] != '{') {
    return false;
  }
  ++i;
  skip_space();
  if (i < text.size() && text[i] == '}') {
    *pos = i + 1;
    return true;
  }
  while (true) {
    std::string key;
    skip_space();
    if (!read_string(&key)) {
      return false;
    }
    skip_space();
    if (i >= text.size() || text[i] != ':') {
      return false;
    }
    ++i;
    skip_space();
    if (i < text.size() && text[i] == '"') {
      std::string ignored;
      if (!read_string(&ignored)) {
        return false;
      }
    } else {
      const size_t number_end = text.find_first_of(",} \t\r\n", i);
      if (number_end == std::string::npos ||
          !ParseU64(std::string_view(text).substr(i, number_end - i), UINT64_MAX,
                    &(*out)[key])) {
        return false;
      }
      i = number_end;
    }
    skip_space();
    if (i >= text.size()) {
      return false;
    }
    if (text[i] == '}') {
      *pos = i + 1;
      return true;
    }
    if (text[i] != ',') {
      return false;
    }
    ++i;
  }
}

// --- `gist corpus` ----------------------------------------------------------

struct CorpusCliArgs {
  std::string dir;  // gen: --out; run/score: --dir (optional)
  uint64_t seed = 2015;
  uint64_t count = kNumBugFamilies;
  std::vector<BugFamily> families;
  uint64_t jobs = 1;
  std::string tier;
  std::string log_level;
  bool chaos = false;
  uint64_t fleet_seed = 2015;
  uint64_t runs_per_iteration = 400;
  uint64_t max_iterations = 8;
  std::string score_json;
  std::string baseline;
  std::string write_baseline;
  bool render = false;  // print each program's final sketch after the table
  TelemetryExportOptions exports;  // --metrics-json / --trace-json for the sweep
};

// Parses everything after `gist corpus <sub>`; false on a malformed flag.
bool ParseCorpusArgs(int argc, char** argv, CorpusCliArgs* args) {
  for (int i = 3; i < argc; ++i) {
    const std::string_view arg = argv[i];
    switch (ParseTelemetryExportFlag(argc, argv, &i, &args->exports)) {
      case TelemetryFlagParse::kConsumed:
        continue;
      case TelemetryFlagParse::kMissingValue:
        return false;
      case TelemetryFlagParse::kNotTelemetry:
        break;
    }
    auto next_value = [&](uint64_t* out, uint64_t max = UINT64_MAX) {
      return i + 1 < argc && ParseU64(argv[++i], max, out);
    };
    auto next_string = [&](std::string* out) {
      if (i + 1 >= argc) {
        return false;
      }
      *out = argv[++i];
      return true;
    };
    if (arg == "--out" || arg == "--dir") {
      if (!next_string(&args->dir)) {
        return false;
      }
    } else if (arg == "--seed") {
      if (!next_value(&args->seed)) {
        return false;
      }
    } else if (arg == "--count") {
      if (!next_value(&args->count, UINT32_MAX)) {
        return false;
      }
    } else if (arg == "--families") {
      if (i + 1 >= argc) {
        return false;
      }
      for (std::string_view piece : SplitNonEmpty(argv[++i], ',')) {
        BugFamily family;
        if (!ParseBugFamily(std::string(piece), &family)) {
          std::fprintf(stderr, "unknown bug family '%.*s'\n",
                       static_cast<int>(piece.size()), piece.data());
          return false;
        }
        args->families.push_back(family);
      }
    } else if (arg == "--jobs") {
      if (!next_value(&args->jobs, kMaxPoolThreads)) {
        return false;
      }
    } else if (arg == "--tier") {
      if (!next_string(&args->tier)) {
        return false;
      }
    } else if (arg == "--log-level") {
      if (!next_string(&args->log_level)) {
        return false;
      }
    } else if (arg == "--chaos") {
      args->chaos = true;
    } else if (arg == "--render") {
      args->render = true;
    } else if (arg == "--fleet-seed") {
      if (!next_value(&args->fleet_seed)) {
        return false;
      }
    } else if (arg == "--runs-per-iteration") {
      if (!next_value(&args->runs_per_iteration, UINT32_MAX)) {
        return false;
      }
    } else if (arg == "--max-iterations") {
      if (!next_value(&args->max_iterations, UINT32_MAX)) {
        return false;
      }
    } else if (arg == "--score-json") {
      if (!next_string(&args->score_json)) {
        return false;
      }
    } else if (arg == "--baseline") {
      if (!next_string(&args->baseline)) {
        return false;
      }
    } else if (arg == "--write-baseline") {
      if (!next_string(&args->write_baseline)) {
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown corpus flag '%.*s'\n", static_cast<int>(arg.size()),
                   arg.data());
      return false;
    }
  }
  return true;
}

int CmdCorpusGen(const CorpusCliArgs& args) {
  if (args.dir.empty()) {
    std::fprintf(stderr, "error: corpus gen needs --out DIR\n");
    return 2;
  }
  CorpusOptions options;
  options.seed = args.seed;
  options.count = static_cast<uint32_t>(args.count);
  options.families = args.families;
  const std::vector<GeneratedProgram> programs = GenerateCorpus(options);
  std::string error;
  if (!WriteCorpusDir(args.dir, programs, options, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  for (const GeneratedProgram& program : programs) {
    std::printf("  %-28s %-20s %5zu instrs\n", program.manifest.name.c_str(),
                BugFamilyName(program.manifest.family),
                static_cast<size_t>(program.module->num_instructions()));
  }
  std::printf("wrote %zu programs (seed %llu) to %s\n", programs.size(),
              static_cast<unsigned long long>(args.seed), args.dir.c_str());
  return 0;
}

// Regenerates the corpus `dir` holds and byte-verifies every on-disk
// artifact against the regeneration. Generation is seed-pure, so any
// mismatch means the directory was edited or corrupted — re-parsing the
// `.gir` instead could silently renumber the manifest's instruction ids.
bool VerifyCorpusDir(const std::string& dir, const std::vector<GeneratedProgram>& programs) {
  bool ok = true;
  for (const GeneratedProgram& program : programs) {
    const std::string stem = dir + "/" + program.manifest.name;
    std::string disk;
    if (!ReadFileBytes(stem + ".gir", &disk) || disk != program.module->ToString()) {
      std::fprintf(stderr, "error: %s.gir does not match its seed's regeneration\n",
                   stem.c_str());
      ok = false;
    }
    if (!ReadFileBytes(stem + ".manifest.json", &disk) || disk != program.manifest.ToJson()) {
      std::fprintf(stderr, "error: %s.manifest.json does not match its seed's regeneration\n",
                   stem.c_str());
      ok = false;
    }
  }
  return ok;
}

void PrintCorpusScore(const CorpusScore& score) {
  std::printf("%-28s %-20s %4s %5s %4s %8s %8s %8s %6s %6s\n", "program", "family", "fail",
              "match", "root", "relev", "order", "overall", "edges", "recur");
  for (const ProgramScore& p : score.programs) {
    std::printf("%-28s %-20s %4s %5s %4s %8.2f %8.2f %8.2f %6.2f %6u\n", p.name.c_str(),
                BugFamilyName(p.family), p.manifested ? "Y" : "-", p.failure_match ? "Y" : "-",
                p.root_cause_found ? "Y" : "-", p.accuracy.relevance, p.accuracy.ordering,
                p.accuracy.overall, p.edge_recall, p.recurrences);
  }
  const auto metrics = score.BaselineMetrics();
  auto metric = [&](const char* key) {
    const auto it = metrics.find(key);
    return it == metrics.end() ? 0.0 : it->second;
  };
  std::printf(
      "\n%zu programs: %.1f%% manifested, %.1f%% failure match, %.1f%% root cause, "
      "mean overall %.2f\n",
      score.programs.size(), 100.0 * metric("corpus_manifested_rate"),
      100.0 * metric("corpus_failure_match_rate"), 100.0 * metric("corpus_root_cause_rate"),
      metric("corpus_mean_overall"));
  std::printf("accuracy buckets: >=90: %u   75-90: %u   50-75: %u   <50: %u\n", score.bucket_a90,
              score.bucket_a75, score.bucket_a50, score.bucket_low);
}

// `run` prints the table; `score` (gate=true) additionally enforces the
// committed baseline — strictly, so a missing baseline file is a failure.
int CmdCorpusRun(const CorpusCliArgs& args, bool gate) {
  CorpusOptions options;
  options.seed = args.seed;
  options.count = static_cast<uint32_t>(args.count);
  options.families = args.families;
  if (!args.dir.empty()) {
    std::string error;
    if (!LoadCorpusIndex(args.dir, &options, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
  }
  const std::vector<GeneratedProgram> programs = GenerateCorpus(options);
  if (!args.dir.empty() && !VerifyCorpusDir(args.dir, programs)) {
    return 1;
  }

  CorpusScoreOptions score_options;
  score_options.jobs = static_cast<uint32_t>(args.jobs);
  if (!ApplyTier(args.tier, &score_options.tier)) {
    return 2;
  }
  if (args.chaos) {
    score_options.faults = CorpusChaosFaults();
  }
  score_options.fleet_seed = args.fleet_seed;
  score_options.runs_per_iteration = static_cast<uint32_t>(args.runs_per_iteration);
  score_options.max_iterations = static_cast<uint32_t>(args.max_iterations);
  FlightRecorder recorder;
  if (args.exports.wants_recorder()) {
    score_options.recorder = &recorder;
  }
  const CorpusScore score = ScoreCorpus(programs, score_options);
  PrintCorpusScore(score);
  if (args.render) {
    for (size_t i = 0; i < score.programs.size(); ++i) {
      const ProgramScore& p = score.programs[i];
      const GeneratedProgram& program = programs[i];
      std::printf("\n=== %s ===\n", p.name.c_str());
      if (!p.manifested) {
        std::printf("(the failure never manifested)\n");
        continue;
      }
      for (InstrId id : program.manifest.root_cause) {
        if (!p.sketch.Contains(id)) {
          std::printf("missing root-cause statement [%u] %s\n", id,
                      InstructionToString(program.module->instr(id)).c_str());
        }
      }
      const std::vector<InstrId> sketch_ids = p.sketch.InstrSet();
      const auto& ideal_ids = program.manifest.ideal.instrs;
      auto in = [](const std::vector<InstrId>& set, InstrId id) {
        return std::find(set.begin(), set.end(), id) != set.end();
      };
      for (InstrId id : sketch_ids) {
        if (!in(ideal_ids, id)) {
          std::printf("sketch-only [%u] %s\n", id,
                      InstructionToString(program.module->instr(id)).c_str());
        }
      }
      for (InstrId id : ideal_ids) {
        if (!in(sketch_ids, id)) {
          std::printf("ideal-only  [%u] %s\n", id,
                      InstructionToString(program.module->instr(id)).c_str());
        }
      }
      RenderOptions render;
      render.ideal = &program.manifest.ideal;
      std::printf("%s", RenderFailureSketch(*program.module, p.sketch, render).c_str());
    }
  }
  if (!args.score_json.empty() && !WriteTelemetryFile(args.score_json, score.ReportJson())) {
    return 1;
  }
  if (!ExportTelemetry(args.exports, score_options.recorder, nullptr, nullptr)) {
    return 1;
  }
  if (!args.write_baseline.empty() &&
      !WriteFlatJson(args.write_baseline, score.BaselineMetrics())) {
    std::fprintf(stderr, "error: cannot write %s\n", args.write_baseline.c_str());
    return 1;
  }
  if (!gate) {
    return 0;
  }
  if (args.baseline.empty()) {
    std::fprintf(stderr, "error: corpus score needs --baseline (or use `corpus run`)\n");
    return 2;
  }
  const std::map<std::string, double> baseline = ReadFlatJson(args.baseline);
  if (baseline.empty()) {
    std::fprintf(stderr, "corpus gate: baseline %s is missing or empty — commit one with "
                 "--write-baseline\n",
                 args.baseline.c_str());
    return 1;
  }
  const BaselineCheck check = CheckAgainstBaseline(score, baseline);
  for (const std::string& violation : check.violations) {
    std::fprintf(stderr, "corpus gate: %s\n", violation.c_str());
  }
  std::printf("corpus gate: %s (%zu metrics vs %s)\n", check.ok ? "OK" : "REGRESSED",
              score.BaselineMetrics().size(), args.baseline.c_str());
  return check.ok ? 0 : 1;
}

int CmdCorpus(int argc, char** argv) {
  if (argc < 3) {
    return Usage();
  }
  const std::string_view sub = argv[2];
  CorpusCliArgs args;
  if (!ParseCorpusArgs(argc, argv, &args)) {
    return Usage();
  }
  if (!ApplyLogLevel(args.log_level)) {
    return 2;
  }
  if (sub == "gen") {
    return CmdCorpusGen(args);
  }
  if (sub == "run") {
    return CmdCorpusRun(args, /*gate=*/false);
  }
  if (sub == "score") {
    return CmdCorpusRun(args, /*gate=*/true);
  }
  return Usage();
}

// Extracts `"key": "value"` from text[from, limit); false when absent.
// Honors the journal's own escaping (predictor text quotes source lines), so
// \" and \\ are unescaped and do not terminate the value.
bool FindStringField(const std::string& text, const std::string& key, size_t from, size_t limit,
                     std::string* out) {
  const std::string needle = "\"" + key + "\": \"";
  const size_t pos = text.find(needle, from);
  if (pos == std::string::npos || pos >= limit) {
    return false;
  }
  std::string value;
  for (size_t i = pos + needle.size(); i < text.size(); ++i) {
    const char c = text[i];
    if (c == '\\' && i + 1 < text.size()) {
      const char next = text[++i];
      value += next == 'n' ? '\n' : next == 't' ? '\t' : next;
    } else if (c == '"') {
      *out = std::move(value);
      return true;
    } else {
      value += c;
    }
  }
  return false;
}

// `gist status <campaign.json>` — render a gist.campaign.v1 journal as the
// live diagnosis dashboard: one convergence row per AsT iteration plus the
// trend / ETA summary the status block carries.
int CmdStatus(int argc, char** argv) {
  std::string path;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.empty() && arg[0] == '-') {
      return Usage();
    }
    if (!path.empty()) {
      return Usage();
    }
    path = std::string(arg);
  }
  if (path.empty()) {
    return Usage();
  }
  std::string text;
  if (!ReadFileBytes(path, &text)) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return 1;
  }
  if (text.find("\"schema\": \"gist.campaign.v1\"") == std::string::npos) {
    std::fprintf(stderr, "error: %s is not a gist.campaign.v1 journal\n", path.c_str());
    return 1;
  }
  std::string title = "failure";
  FindStringField(text, "title", 0, text.size(), &title);
  std::printf("campaign: %s\n", title.c_str());

  auto malformed = [&](const char* where) {
    std::fprintf(stderr, "error: %s is malformed: bad %s\n", path.c_str(), where);
    return 1;
  };
  constexpr std::string_view kIterations = "\"iterations\": [";
  constexpr std::string_view kStatus = "\"status\": ";
  const size_t status_pos = text.find("\"status\": {");
  const size_t array_pos = text.find(kIterations);
  std::printf("%5s %6s %6s %5s %5s %5s %5s %5s %6s %6s %6s  %s\n", "iter", "sigma", "runs",
              "fail", "succ", "lost", "quar", "dist", "churn", "cover", "surv",
              "top predictor");
  size_t pos = array_pos == std::string::npos ? text.size() : array_pos + kIterations.size();
  while (pos < text.size()) {
    pos = SkipSpace(text, pos);
    if (pos < text.size() && text[pos] == ']') {
      break;
    }
    const size_t open = pos;
    std::map<std::string, uint64_t> row;
    if (!ParseFlatNumberJson(text, &pos, &row)) {
      return malformed("iteration row");
    }
    const std::string object = text.substr(open, pos - open);
    pos = SkipSpace(text, pos);
    if (pos < text.size() && text[pos] == ',') {
      ++pos;
    }
    std::string top_predictor;
    FindStringField(object, "top_predictor", 0, object.size(), &top_predictor);
    auto value = [&](const char* key) {
      const auto it = row.find(key);
      return it == row.end() ? uint64_t{0} : it->second;
    };
    std::printf("%5llu %6llu %6llu %5llu %5llu %5llu %5llu %5llu %6llu %5llu‰ %5llu‰  %s\n",
                static_cast<unsigned long long>(value("iteration")),
                static_cast<unsigned long long>(value("sigma")),
                static_cast<unsigned long long>(value("runs_consumed")),
                static_cast<unsigned long long>(value("failing")),
                static_cast<unsigned long long>(value("successful")),
                static_cast<unsigned long long>(value("lost")),
                static_cast<unsigned long long>(value("quarantined")),
                static_cast<unsigned long long>(value("sketch_edit_distance")),
                static_cast<unsigned long long>(value("predictor_rank_churn")),
                static_cast<unsigned long long>(value("watch_coverage_permille")),
                static_cast<unsigned long long>(value("survivor_permille")),
                top_predictor.c_str());
  }

  if (status_pos == std::string::npos) {
    std::fprintf(stderr, "error: %s has no status block\n", path.c_str());
    return 1;
  }
  size_t status_end = status_pos + kStatus.size();
  std::map<std::string, uint64_t> fields;
  if (!ParseFlatNumberJson(text, &status_end, &fields)) {
    return malformed("status block");
  }
  const std::string status = text.substr(status_pos, status_end - status_pos);
  std::string trend = "unknown";
  std::string eta = "unknown";
  FindStringField(status, "trend", 0, status.size(), &trend);
  FindStringField(status, "eta_bucket", 0, status.size(), &eta);
  auto value = [&](const char* key) {
    const auto it = fields.find(key);
    return it == fields.end() ? uint64_t{0} : it->second;
  };
  std::printf("\nstatus: %s (eta: %s)\n", trend.c_str(), eta.c_str());
  std::printf("  %llu iterations, sigma %llu, %llu runs consumed, %llu recurrences, "
              "root cause %s\n",
              static_cast<unsigned long long>(value("iterations")),
              static_cast<unsigned long long>(value("sigma")),
              static_cast<unsigned long long>(value("runs_consumed")),
              static_cast<unsigned long long>(value("recurrences")),
              value("root_cause_found") != 0 ? "FOUND" : "not isolated");
  std::printf("  window %llu of %llu slice statements (slice %s), virtual clock %llu\n",
              static_cast<unsigned long long>(value("window_statements")),
              static_cast<unsigned long long>(value("slice_statements")),
              value("slice_exhausted") != 0 ? "exhausted" : "growing",
              static_cast<unsigned long long>(value("virtual_now")));
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string_view command = argv[1];
  if (command == "apps") {
    return CmdApps();
  }
  if (command == "status") {
    return CmdStatus(argc, argv);
  }
  if (command == "profdiff") {
    return CmdProfDiff(argc, argv);
  }
  if (command == "corpus") {
    return CmdCorpus(argc, argv);
  }
  CliOptions options;
  if (!ParseArgs(argc, argv, 2, &options)) {
    return Usage();
  }
  if (!ApplyLogLevel(options.log_level)) {
    return 2;
  }
  if (command == "run") {
    return CmdRun(options);
  }
  if (command == "slice") {
    return CmdSlice(options);
  }
  if (command == "trace") {
    return CmdTrace(options);
  }
  if (command == "diagnose") {
    return CmdDiagnose(options);
  }
  if (command == "diagnose-app") {
    return CmdDiagnoseApp(options);
  }
  if (command == "fix-app") {
    return CmdFixApp(options);
  }
  if (command == "dump-app") {
    return CmdDumpApp(options);
  }
  return Usage();
}

}  // namespace
}  // namespace gist

int main(int argc, char** argv) { return gist::Main(argc, argv); }
