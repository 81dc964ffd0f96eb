// Calibrated cost model for runtime-overhead accounting.
//
// The repository's substrate is an interpreter, so wall-clock time would
// measure the simulator, not the techniques. Instead, every tracing mechanism
// is charged cycle costs against the uninstrumented execution's baseline, and
// overheads are reported as percentages — deterministic, and calibrated so
// the *shape* matches the paper's measurements:
//
//   * Gist (AsT + PT toggling + ≤4 watchpoints): a few percent (§5.3, 3.74%);
//   * full-program Intel PT tracing: ~11% average (Fig. 13);
//   * full software record/replay (Mozilla rr stand-in): ~984% average
//     (Fig. 13), i.e. ~166× Gist's overhead;
//   * software-simulated PT (PIN stand-in): 3×–5000× (§6).
//
// Cost intuition behind the constants: PT drains ~1 byte of trace per ~100
// retired instructions (long TNT packs 47 branch outcomes into 8 bytes) and
// costs mainly memory bandwidth; MSR writes for
// toggling cost ~hundreds of cycles; a debug-register trap costs a kernel
// round-trip; arming via ptrace costs more (attach + pokeuser + detach);
// software tracing costs tens of cycles per event because every event takes
// an instrumented callback.

#ifndef GIST_SRC_HW_PERF_MODEL_H_
#define GIST_SRC_HW_PERF_MODEL_H_

#include <cstdint>

namespace gist {

struct CostModel {
  double cycles_per_instr = 1.0;          // uninstrumented baseline
  double cycles_per_pt_byte = 3.5;        // PT bandwidth/packet drag
  double cycles_per_pt_toggle = 300.0;    // MSR write pair (enable/disable)
  double cycles_per_watch_trap = 500.0;   // debug exception + handler
  double cycles_per_watch_arm = 1500.0;   // ptrace attach/poke/detach
  double cycles_per_rr_instr = 8.5;       // record/replay per retired instr
  double cycles_per_rr_mem = 30.0;        // record/replay per memory event
  double cycles_per_swpt_branch = 150.0;  // software PT callback per branch
  double cycles_per_swpt_instr = 2.0;     // software PT per-instruction drag
};

// Activity of the tracing mechanisms during one run.
struct TracingActivity {
  uint64_t pt_bytes = 0;
  uint64_t pt_toggles = 0;
  uint64_t watch_traps = 0;
  uint64_t watch_arms = 0;
};

// Overhead (in percent of baseline runtime) of Gist's client-side tracking:
// PT toggled around the monitored slice plus hardware watchpoints.
double GistClientOverheadPercent(const CostModel& model, uint64_t baseline_instructions,
                                 const TracingActivity& activity);

// Overhead of full-program Intel PT tracing (tracing never toggled off).
double PtFullTraceOverheadPercent(const CostModel& model, uint64_t baseline_instructions,
                                  uint64_t pt_bytes);

// Overhead of the full software record/replay baseline (Mozilla rr stand-in).
double RecordReplayOverheadPercent(const CostModel& model, uint64_t baseline_instructions,
                                   uint64_t mem_accesses);

// Overhead of simulating PT in software (PIN stand-in, §6).
double SoftwarePtOverheadPercent(const CostModel& model, uint64_t baseline_instructions,
                                 uint64_t branches);

}  // namespace gist

#endif  // GIST_SRC_HW_PERF_MODEL_H_
