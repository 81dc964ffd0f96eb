// Deterministic hot-path profiler (DESIGN.md §10).
//
// Ticks on the virtual-time clock — retired instructions — never wall time,
// so a profile is a pure function of (module, options, fleet_seed) like every
// other pipeline artifact. Collection has three sources:
//
//   * the interpreter's fast path bumps per-basic-block retired-instruction
//     and execution counters plus taken/not-taken edge counts into a
//     BlockProfile shard the caller owns (VmOptions::profile);
//   * the watchpoint unit (src/hw) attributes debug-register slot occupancy
//     and trap cost per arming slot and per trapping instruction;
//   * the dispatch breakdown derives per-subscriber-mask delivery cost from
//     the mode-independent event tallies in RunStats.
//
// Shards aggregate per run and merge on the fleet coordinator in run-index
// order over the consumed prefix only — exactly the FleetResult / flight
// recorder discipline — so the exported profile is bit-identical for every
// `--jobs`, faults on or off, and for the fast path vs reference dispatch.
//
// Exports: a stable sorted JSON schema ("gist.profile.v1") and collapsed
// stacks (app;function;block count) for flamegraph tooling, plus a profile
// diff (`gist profdiff`) that tools/ci.sh runs as a strict gate against the
// committed BENCH_profile.json baseline.
//
// This header is include-light on purpose: BlockProfile is a header-only POD
// the VM bumps directly (src/vm must not link the obs library), and the
// profiler proper only forward-declares the decoded module.

#ifndef GIST_SRC_OBS_PROFILER_H_
#define GIST_SRC_OBS_PROFILER_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/ir/ids.h"

namespace gist {

class DecodedModule;
class MetricsRegistry;

// Per-run profile shard, indexed by DecodedBlock::profile_index (dense over
// the whole module, function-major). All four arrays share that indexing.
// Header-only so the interpreter can bump counters without linking gist_obs.
struct BlockProfile {
  std::vector<uint64_t> exec;       // block entries (entry/branch/jump/call)
  std::vector<uint64_t> retired;    // instructions retired inside the block
  std::vector<uint64_t> taken;      // conditional terminator: taken count
  std::vector<uint64_t> not_taken;  // conditional terminator: fall-through

  void EnsureSize(size_t num_blocks) {
    if (exec.size() < num_blocks) {
      exec.resize(num_blocks, 0);
      retired.resize(num_blocks, 0);
      taken.resize(num_blocks, 0);
      not_taken.resize(num_blocks, 0);
    }
  }

  void Merge(const BlockProfile& other) {
    EnsureSize(other.exec.size());
    for (size_t i = 0; i < other.exec.size(); ++i) {
      exec[i] += other.exec[i];
      retired[i] += other.retired[i];
      taken[i] += other.taken[i];
      not_taken[i] += other.not_taken[i];
    }
  }

  uint64_t total_retired() const {
    uint64_t total = 0;
    for (uint64_t value : retired) {
      total += value;
    }
    return total;
  }

  bool empty() const { return exec.empty(); }
};

// Everything a consumed run contributes beyond its BlockProfile: the
// mode-independent event tallies (for the per-mask dispatch breakdown) and
// the watchpoint attribution sampled from the client runtime. Built by
// MakeProfiledSample (src/core/gist.h); unmonitored phase-1 probes carry
// only the event tallies.
struct ProfiledRunSample {
  uint64_t retired = 0;
  uint64_t mem_accesses = 0;
  uint64_t branches = 0;
  uint64_t context_switches = 0;
  uint64_t block_enters = 0;
  uint64_t returns = 0;
  uint64_t thread_events = 0;
  // Declared SubscribedEvents() mask of every attached observer. Declared —
  // not the effective mask — so reference dispatch (which forces kEvAll)
  // produces the same breakdown as the fast path.
  std::vector<uint32_t> observer_masks;
  // Watchpoint-slot contention (per debug-register slot, index-aligned) and
  // trap attribution per trapping instruction.
  uint64_t watch_denied_arms = 0;
  std::vector<uint64_t> watch_slot_arms;
  std::vector<uint64_t> watch_slot_traps;
  std::vector<std::pair<InstrId, uint64_t>> watch_traps_by_instr;
};

// Coordinator-side aggregator. Attach() binds the module's block layout
// (names, sizes, CFG successors) once; AddRun() folds one consumed run's
// shard in — the fleet calls it in run-index order, making every export
// deterministic.
class HotPathProfiler {
 public:
  struct Options {
    uint32_t hot_chain_count = 5;   // chains exported under "hot_chains"
    uint32_t hot_chain_max_len = 8; // blocks per chain
  };

  HotPathProfiler() = default;
  explicit HotPathProfiler(Options options) : options_(options) {}

  HotPathProfiler(const HotPathProfiler&) = delete;
  HotPathProfiler& operator=(const HotPathProfiler&) = delete;

  // Binds the profiler to `decoded`'s block layout under display name `app`.
  // Must be called before AddRun; calling again resets all accumulated data.
  void Attach(const DecodedModule& decoded, std::string app);
  bool attached() const { return attached_; }

  void AddRun(const BlockProfile& blocks, const ProfiledRunSample& sample);
  uint64_t runs() const { return runs_; }
  const BlockProfile& totals() const { return total_; }

  // Stable sorted JSON ("gist.profile.v1"): totals, per-block histograms,
  // CFG edge profile, ranked hot chains, watchpoint attribution, dispatch
  // breakdown. Integers only; byte-identical across platforms.
  std::string ProfileJson() const;
  // Collapsed-stack flamegraph format: one "app;function;block count" line
  // per executed block, in block-index order.
  std::string ProfileCollapsed() const;

  // Registers the profile summary in the deterministic metrics registry
  // ("profile." namespace) so recorder snapshots carry it.
  void PublishSummary(MetricsRegistry* metrics) const;

 private:
  struct BlockStatic {
    std::string function;
    std::string label;
    uint32_t size = 0;
    // Successor profile indices (kNoSuccessor when absent): a conditional
    // terminator has taken/not_taken, an unconditional jump has jump.
    uint32_t taken = kNoSuccessor;
    uint32_t not_taken = kNoSuccessor;
    uint32_t jump = kNoSuccessor;
  };
  struct MaskCost {
    uint64_t observers = 0;  // observer-runs declaring this mask
    uint64_t selected = 0;   // event payloads the mask selects across them
  };

  static constexpr uint32_t kNoSuccessor = 0xffffffffu;

  Options options_;
  bool attached_ = false;
  std::string app_;
  std::vector<BlockStatic> info_;
  BlockProfile total_;
  uint64_t runs_ = 0;
  // Dispatch breakdown: mode-independent event class totals + per-mask cost.
  uint64_t events_[7] = {};  // indexed by ObservedEvents bit position
  std::map<uint32_t, MaskCost> masks_;
  // Watchpoint attribution.
  uint64_t watch_denied_arms_ = 0;
  std::vector<uint64_t> watch_slot_arms_;
  std::vector<uint64_t> watch_slot_traps_;
  std::map<InstrId, uint64_t> watch_traps_by_instr_;
};

// --- profile diff (the `gist profdiff` gate) --------------------------------

struct ProfileDiffOptions {
  uint32_t top_n = 5;               // entries reported per direction
  uint64_t max_drift_permille = 0;  // allowed per-block relative drift (0 = exact)
};

struct ProfileDiffResult {
  bool parsed = false;  // both inputs were well-formed gist.profile.v1 JSON
  bool ok = false;      // parsed and every block within the drift threshold
  std::string error;    // parse/schema failure description
  std::string report;   // human-readable top-N regressions/improvements
};

// Diffs two profile JSON exports keyed by function;block. Any block whose
// retired count drifts beyond `max_drift_permille` (relative to the baseline,
// per-mille) fails the diff; new and vanished blocks count as full drift.
ProfileDiffResult DiffProfiles(const std::string& baseline_json,
                               const std::string& current_json,
                               const ProfileDiffOptions& options = {});

}  // namespace gist

#endif  // GIST_SRC_OBS_PROFILER_H_
