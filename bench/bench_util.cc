#include "bench/bench_util.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "src/analysis/slicer.h"
#include "src/core/instrumentation.h"
#include "src/support/str.h"
#include "src/support/thread_pool.h"

namespace gist {

FleetOptions DefaultBenchFleetOptions() {
  FleetOptions options;
  options.runs_per_iteration = 400;
  options.max_iterations = 8;
  options.fleet_seed = 2015;  // SOSP'15
  return options;
}

bool ParseJobsValue(std::string_view text, uint32_t* jobs) {
  uint64_t value = 0;
  if (!ParseU64(text, kMaxPoolThreads, &value)) {
    return false;
  }
  *jobs = static_cast<uint32_t>(value);
  return true;
}

uint32_t ParseJobsFlag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    constexpr std::string_view kPrefix = "--jobs=";
    std::string_view text;
    if (arg == "--jobs") {
      text = i + 1 < argc ? std::string_view(argv[i + 1]) : std::string_view();
    } else if (arg.substr(0, kPrefix.size()) == kPrefix) {
      text = arg.substr(kPrefix.size());
    } else {
      continue;
    }
    uint32_t jobs = 0;
    if (!ParseJobsValue(text, &jobs)) {
      std::fprintf(stderr, "error: --jobs wants a number in [0, %u], got '%.*s'\n",
                   kMaxPoolThreads, static_cast<int>(text.size()), text.data());
      std::exit(2);
    }
    return jobs;
  }
  return 1;
}

std::string FormatMinSec(double seconds) {
  const int total = static_cast<int>(seconds + 0.5);
  return StrFormat("%dm:%02ds", total / 60, total % 60);
}

AppFleetOutcome RunAppFleet(const std::string& name, const FleetOptions& options) {
  AppFleetOutcome outcome;
  outcome.app = MakeAppByName(name);
  GIST_CHECK(outcome.app != nullptr) << "unknown app " << name;
  BugApp& app = *outcome.app;

  FleetOptions fleet_options = options;
  fleet_options.gist.title =
      app.info().name + " (" + app.info().software + " bug #" + app.info().bug_id + ")";

  Fleet fleet(
      app.module(),
      [&app](uint64_t run_index, Rng& rng) { return app.MakeWorkload(run_index, rng); },
      fleet_options);

  const std::vector<InstrId>& root_cause = app.root_cause_instrs();
  outcome.fleet = fleet.Run([&](const FailureSketch& sketch) {
    return std::all_of(root_cause.begin(), root_cause.end(),
                       [&](InstrId id) { return sketch.Contains(id); });
  });

  if (fleet.server().HasTarget()) {
    outcome.slice = fleet.server().slice();
    outcome.final_plan = fleet.server().plan();
    outcome.traces = fleet.server().traces();
  }

  // Offline analysis cost: slicing + instrumentation planning from scratch,
  // wall-clock (the paper's parenthesized per-bug time).
  if (outcome.fleet.first_failure_found) {
    const auto start = std::chrono::steady_clock::now();
    Ticfg ticfg(app.module());
    const StaticSlice slice =
        ComputeBackwardSlice(ticfg, outcome.fleet.first_failure.failing_instr);
    const InstrumentationPlan plan = PlanInstrumentation(ticfg, slice.instrs);
    (void)plan;
    const auto end = std::chrono::steady_clock::now();
    outcome.offline_seconds = std::chrono::duration<double>(end - start).count();
  }

  const Module& module = app.module();
  outcome.accuracy = MeasureAccuracy(module, outcome.fleet.sketch, app.ideal_sketch());
  outcome.slice_source_loc = module.CountSourceLines(outcome.slice.instrs);
  outcome.ideal_instrs = app.ideal_sketch().instrs.size();
  outcome.ideal_source_loc = module.CountSourceLines(app.ideal_sketch().instrs);
  const std::vector<InstrId> sketch_instrs = outcome.fleet.sketch.InstrSet();
  outcome.sketch_instrs = sketch_instrs.size();
  outcome.sketch_source_loc = module.CountSourceLines(sketch_instrs);
  return outcome;
}

const std::vector<std::string>& Table1Apps() {
  static const std::vector<std::string> kApps = {
      "apache-1", "apache-2", "apache-3",    "apache-4", "cppcheck-1", "cppcheck-2",
      "curl",     "transmission", "sqlite",  "memcached", "pbzip2"};
  return kApps;
}

BreakdownResult MeasureBreakdown(const std::string& name, const FleetOptions& options,
                                 FlightRecorder* recorder) {
  BreakdownResult breakdown;
  FleetOptions fleet_options = options;
  fleet_options.recorder = recorder;
  // The control-flow stage rebuilds the sketch from the raw traces, which
  // the server retains only in shadow mode.
  fleet_options.gist.stats_shadow = true;
  AppFleetOutcome outcome = RunAppFleet(name, fleet_options);
  const BugApp& app = *outcome.app;
  const Module& module = app.module();
  const IdealSketch& ideal = app.ideal_sketch();

  // Full pipeline.
  breakdown.with_data_flow = outcome.accuracy.overall;

  // Static slicing only: the sketch is the tracked window of the static
  // slice, in program-toward-failure order (no runtime information at all).
  {
    const size_t count =
        std::min<size_t>(outcome.fleet.sigma_final, outcome.slice.instrs.size());
    std::vector<InstrId> window(outcome.slice.instrs.begin(),
                                outcome.slice.instrs.begin() + static_cast<long>(count));
    std::vector<InstrId> ordered(window.rbegin(), window.rend());
    std::vector<InstrId> accesses;
    for (InstrId id : ordered) {
      if (module.instr(id).IsSharedAccess()) {
        accesses.push_back(id);
      }
    }
    breakdown.static_only = MeasureAccuracyRaw(ordered, accesses, ideal).overall;
  }

  // + control-flow tracking: rebuild the sketch with the watchpoint log
  // stripped from every collected trace — execution-filtered, but no
  // data-flow discovery, no values, no inter-thread order anchors.
  {
    std::vector<RunTrace> stripped = outcome.traces;
    for (RunTrace& trace : stripped) {
      trace.watch_events.clear();
    }
    Result<FailureSketch> sketch =
        BuildFailureSketch(module, outcome.final_plan.window, stripped);
    if (sketch.ok()) {
      breakdown.with_control_flow = MeasureAccuracy(module, *sketch, ideal).overall;
    } else {
      breakdown.with_control_flow = breakdown.static_only;
    }
  }

  // Publish stage attribution through the recorder: accuracies are derived
  // (floating-point) data, so they ride the annotation side channel; the
  // instant marks the breakdown on the control lane of the span trace.
  if (recorder != nullptr) {
    recorder->Annotate("fig10." + name + ".static_only", breakdown.static_only);
    recorder->Annotate("fig10." + name + ".with_control_flow", breakdown.with_control_flow);
    recorder->Annotate("fig10." + name + ".with_data_flow", breakdown.with_data_flow);
    recorder->AddInstant("breakdown", "bench", FlightRecorder::kControlTrack,
                         {StrArg("app", name)});
  }
  return breakdown;
}

std::map<std::string, double> ReadBenchJson(const std::string& path) {
  std::map<std::string, double> values;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return values;
  }
  std::string text;
  char chunk[4096];
  size_t got;
  while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    text.append(chunk, got);
  }
  std::fclose(file);

  // Flat {"key": number, ...} objects only; anything else parses as empty.
  size_t pos = 0;
  while (true) {
    const size_t open = text.find('"', pos);
    if (open == std::string::npos) {
      break;
    }
    const size_t close = text.find('"', open + 1);
    if (close == std::string::npos) {
      break;
    }
    const size_t colon = text.find(':', close);
    if (colon == std::string::npos) {
      break;
    }
    const std::string key = text.substr(open + 1, close - open - 1);
    char* end = nullptr;
    const double value = std::strtod(text.c_str() + colon + 1, &end);
    if (end == text.c_str() + colon + 1) {
      break;  // not a number
    }
    values[key] = value;
    pos = static_cast<size_t>(end - text.c_str());
  }
  return values;
}

bool UpdateBenchJson(const std::string& path, const std::map<std::string, double>& values) {
  std::map<std::string, double> merged = ReadBenchJson(path);
  for (const auto& [key, value] : values) {
    merged[key] = value;
  }
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return false;
  }
  std::fprintf(file, "{\n");
  size_t index = 0;
  for (const auto& [key, value] : merged) {
    const char* separator = ++index < merged.size() ? "," : "";
    // Counters must round-trip exactly (the CI gate diffs them for equality);
    // %.6g would mangle anything above six significant digits.
    if (value == std::floor(value) && std::abs(value) < 9.0e15) {
      std::fprintf(file, "  \"%s\": %lld%s\n", key.c_str(), static_cast<long long>(value),
                   separator);
    } else {
      std::fprintf(file, "  \"%s\": %.6g%s\n", key.c_str(), value, separator);
    }
  }
  std::fprintf(file, "}\n");
  std::fclose(file);
  return true;
}

std::string ParseEmitJsonFlag(int argc, char** argv, const std::string& default_path) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--emit-json") {
      return default_path;
    }
    constexpr std::string_view kPrefix = "--emit-json=";
    if (arg.substr(0, kPrefix.size()) == kPrefix) {
      return std::string(arg.substr(kPrefix.size()));
    }
  }
  return std::string();
}

}  // namespace gist
