// Immutable per-iteration view of the server's instrumentation state.
//
// The execution engine's lifecycle is freeze → fan out → merge (DESIGN.md,
// "Execution engine"): at the top of each AsT iteration the coordinator
// freezes the server's current plan into a PlanSnapshot, hands only the
// snapshot to the monitored runs (which may execute concurrently on a thread
// pool), and merges the resulting RunTraces back into the mutable GistServer
// in run-index order. Clients never see the server, so server-side
// refinement (AddTrace → Replan) can proceed on the coordinator while runs
// of the frozen plan are still in flight.
//
// The snapshot also owns the cooperative watchpoint rotation of §3.2.3: when
// the plan tracks more accesses than a client has watchpoint slots, client K
// watches the contiguous window of `slots` accesses starting at sorted
// offset (K * slots) mod |accesses|. There are at most |accesses| distinct
// windows, so the snapshot materializes each restricted plan once at freeze
// time; per-run plan lookup is an index, not a sort-and-filter. Each of those
// plans is compiled once into the SiteTable its clients' runs filter on
// (src/vm/observer.h, DESIGN.md §7).

#ifndef GIST_SRC_CORE_PLAN_SNAPSHOT_H_
#define GIST_SRC_CORE_PLAN_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/instrumentation.h"
#include "src/vm/decoded_module.h"
#include "src/vm/observer.h"

namespace gist {

// Compiles `plan`'s client sites for `module`: hook-before/after at the arm
// sites, PT-stop and watch flags at the plan's stop and watch instructions,
// and a PT-start flag on every start block.
SiteTable CompileSiteTable(const Module& module, const InstrumentationPlan& plan);

class PlanSnapshot {
 public:
  // Freezes `plan` (a plan for `module`) for clients with `watchpoint_slots`
  // hardware slots.
  // `version` counts the server's replans (any refinement discovery or AsT
  // advance bumps it); `sigma` records the AsT window size the plan tracks.
  // `decoded` optionally ships the server's pre-decoded module cache so every
  // run of the snapshot interprets from the same read-only DecodedModule and
  // its fused bodies instead of re-decoding (DESIGN.md §7, §12).
  PlanSnapshot(const Module& module, InstrumentationPlan plan, uint32_t watchpoint_slots,
               uint64_t version, uint32_t sigma,
               std::shared_ptr<const DecodedModule> decoded = nullptr);

  // The unrestricted plan (what the server would ship to a lone client).
  const InstrumentationPlan& base() const { return plan_; }

  // The plan client `client_index` actually runs: the base plan when the
  // watch set fits the slots, otherwise that client's rotation window.
  const InstrumentationPlan& ForClient(uint64_t client_index) const;
  // The compiled sites of ForClient(client_index).
  const SiteTable& SitesForClient(uint64_t client_index) const;

  uint64_t version() const { return version_; }
  uint32_t sigma() const { return sigma_; }
  uint32_t watchpoint_slots() const { return slots_; }

  // Number of distinct rotated plans (0 when no rotation is needed).
  size_t rotation_count() const { return rotations_.size(); }

  // The shared pre-decoded module cache, or null when the snapshot was built
  // without one (runs then decode privately).
  const std::shared_ptr<const DecodedModule>& decoded() const { return decoded_; }

 private:
  InstrumentationPlan plan_;
  uint32_t slots_ = 0;
  uint64_t version_ = 0;
  uint32_t sigma_ = 0;
  std::shared_ptr<const DecodedModule> decoded_;
  // Rotation r restricts the watch set to sorted accesses
  // [r, r + slots) mod |accesses|; indexed by (client * slots) mod size.
  std::vector<InstrumentationPlan> rotations_;
  // One compiled table per plan a client can run: the base plan's alone, or
  // one per rotation, in rotation order.
  std::vector<SiteTable> sites_;

  // Index of client `client_index`'s plan: its rotation, or 0 (the base).
  size_t PlanIndex(uint64_t client_index) const;
};

}  // namespace gist

#endif  // GIST_SRC_CORE_PLAN_SNAPSHOT_H_
