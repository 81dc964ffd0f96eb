// Shared harness for the evaluation benches: runs an app through the full
// cooperative-fleet loop, gathers the Table 1 / Fig. 9-12 metrics, and
// provides the stage-limited pipeline variants used by the Fig. 10
// contribution breakdown.

#ifndef GIST_BENCH_BENCH_UTIL_H_
#define GIST_BENCH_BENCH_UTIL_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/coop/fleet.h"
#include "src/obs/flight_recorder.h"

namespace gist {

struct AppFleetOutcome {
  std::unique_ptr<BugApp> app;
  FleetResult fleet;
  StaticSlice slice;
  InstrumentationPlan final_plan;
  std::vector<RunTrace> traces;  // everything the server collected
  AccuracyResult accuracy;
  double offline_seconds = 0.0;  // static slice + instrumentation planning
  size_t slice_source_loc = 0;
  size_t ideal_instrs = 0;
  size_t ideal_source_loc = 0;
  size_t sketch_instrs = 0;
  size_t sketch_source_loc = 0;
};

// Default fleet options used across the benches (kept identical so numbers
// are comparable between tables).
FleetOptions DefaultBenchFleetOptions();

// Parses `--jobs N` / `--jobs=N` from the bench command line (0 = all
// hardware threads). Returns 1 — fully sequential, the historical behavior —
// when the flag is absent. Results are identical for every value; only
// wall-clock changes.
uint32_t ParseJobsFlag(int argc, char** argv);

// Runs `name`'s bug through the full loop and measures everything. The
// root-cause check is the app's own ground truth.
AppFleetOutcome RunAppFleet(const std::string& name, const FleetOptions& options);

// The Table 1 app list, shared by the sweep benches.
const std::vector<std::string>& Table1Apps();

// Stage-limited accuracy (Fig. 10):
//   static-only: the sketch is the raw AsT window of the static slice;
//   +control flow: window filtered by PT-decoded execution, no data flow;
//   +data flow: the full pipeline (same as RunAppFleet's accuracy).
struct BreakdownResult {
  double static_only = 0.0;
  double with_control_flow = 0.0;
  double with_data_flow = 0.0;
};

// When `recorder` is non-null the fleet runs with it attached (deterministic
// metrics + virtual-time spans) and the three stage accuracies are published
// as annotations "fig10.<name>.static_only" / ".with_control_flow" /
// ".with_data_flow" — the recorder is the source of truth the Fig. 10 table
// prints from.
BreakdownResult MeasureBreakdown(const std::string& name, const FleetOptions& options,
                                 FlightRecorder* recorder = nullptr);

// Formats seconds as the paper's "<Mm:SSs>".
std::string FormatMinSec(double seconds);

// --- machine-readable bench artifacts (BENCH_interp.json) -------------------
// The artifact is a flat JSON object mapping metric names to numbers. The
// interpreter microbench and the Table 1 sweep both merge their metrics into
// the same file; tools/ci.sh gates on the committed copy.

// Reads `path`; empty map when the file is missing or unparsable.
std::map<std::string, double> ReadBenchJson(const std::string& path);

// Merges `values` over the file's current contents and rewrites it (sorted
// keys, one per line). Returns false when the file cannot be written.
bool UpdateBenchJson(const std::string& path, const std::map<std::string, double>& values);

// Parses `--emit-json` / `--emit-json=PATH`. Returns the empty string when
// the flag is absent, `default_path` for the bare form.
std::string ParseEmitJsonFlag(int argc, char** argv, const std::string& default_path);

}  // namespace gist

#endif  // GIST_BENCH_BENCH_UTIL_H_
