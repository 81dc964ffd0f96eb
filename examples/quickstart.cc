// Quickstart: the whole Gist loop on a 30-line racy program.
//
//   1. write a program in MiniIR (text form, parsed at startup);
//   2. run it in production until it crashes once;
//   3. hand the failure report to the Gist server (static backward slice +
//      instrumentation plan);
//   4. keep running production workloads under the (cheap) instrumentation;
//   5. build and print the failure sketch.
//
// Build & run:   ./build/examples/quickstart

#include <cstdio>

#include "src/core/gist.h"
#include "src/ir/parser.h"

namespace {

// Two threads do an unsynchronized read-modify-write on a shared counter;
// a consistency assert fires when an update is lost.
constexpr const char* kProgram = R"(
global counter 1 0

func deposit(1) {                ; r0 = amount
entry:
  r1 = addrof counter
  r2 = load r1                   ; old = counter
  r3 = add r2, r0
  store r1, r3                   ; counter = old + amount
  r4 = load r1
  r5 = eq r4, r3
  assert r5, "lost update: counter changed underneath us"
  ret
}

func main() {
entry:
  r0 = const 100
  r1 = spawn @deposit(r0)
  r2 = const 50
  r3 = spawn @deposit(r2)
  join r1
  join r3
  r4 = addrof counter
  r5 = load r4
  print r5
  ret
}
)";

}  // namespace

int main() {
  using namespace gist;

  auto module = ParseModule(kProgram);
  if (!module.ok()) {
    std::fprintf(stderr, "parse error: %s\n", module.error().message().c_str());
    return 1;
  }

  // --- 1. production until the first crash --------------------------------
  FailureReport report;
  uint64_t failing_seed = 0;
  for (uint64_t seed = 1; seed <= 1000; ++seed) {
    Workload workload;
    workload.schedule_seed = seed;
    Vm vm(**module, workload, VmOptions{});
    RunResult result = vm.Run();
    if (!result.ok()) {
      report = result.failure;
      failing_seed = seed;
      break;
    }
  }
  if (failing_seed == 0) {
    std::fprintf(stderr, "the race never manifested\n");
    return 1;
  }
  std::printf("First failure (seed %llu): %s\n", static_cast<unsigned long long>(failing_seed),
              report.message.c_str());

  // --- 2. server: slice + instrumentation ---------------------------------
  GistOptions options;
  options.title = "quickstart: lost update on `counter`";
  GistServer server(**module, options);
  server.ReportFailure(report);
  std::printf("Static slice: %zu statements; monitoring a window of %u\n",
              server.slice().instrs.size(), server.sigma());

  // --- 3. monitored production runs, growing the window adaptively ---------
  // σ=2 covers only the assert and its comparison; the loads/stores of the
  // racy read-modify-write enter the window (and get watchpoints) as AsT
  // doubles σ — stop once the sketch carries a concurrency predictor.
  FailureSketch sketch;
  uint64_t seed = 0;
  for (int iteration = 0; iteration < 4; ++iteration) {
    for (int i = 0; i < 120; ++i) {
      Workload workload;
      workload.schedule_seed = ++seed;
      MonitoredRun run = RunMonitored(**module, server.plan(), workload, options, seed);
      server.AddTrace(std::move(run.trace));
    }
    Result<FailureSketch> built = server.BuildSketch();
    if (!built.ok()) {
      std::fprintf(stderr, "no sketch: %s\n", built.error().message().c_str());
      return 1;
    }
    sketch = *built;
    std::printf("AsT iteration %d (sigma=%u): sketch has %zu statements, %s\n", iteration,
                server.sigma(), sketch.InstrSet().size(),
                sketch.best_concurrency.has_value() ? "concurrency predictor found"
                                                    : "no concurrency predictor yet");
    if (sketch.best_concurrency.has_value()) {
      break;
    }
    server.AdvanceAst();
  }
  std::printf("Used %u failure recurrences across %llu runs.\n\n",
              server.failure_recurrences(),
              static_cast<unsigned long long>(server.behavior().runs_recorded()));

  // --- 4. the failure sketch ------------------------------------------------
  std::printf("%s\n", RenderFailureSketch(**module, sketch).c_str());
  return 0;
}
