#include "src/core/plan_snapshot.h"

#include <algorithm>

namespace gist {
namespace {

// Drops arm sites whose target access the restricted plan does not watch.
void FilterArmSites(const std::unordered_set<InstrId>& mine,
                    std::map<InstrId, std::vector<WatchArmSite>>* sites) {
  for (auto it = sites->begin(); it != sites->end();) {
    std::vector<WatchArmSite>& list = it->second;
    list.erase(std::remove_if(list.begin(), list.end(),
                              [&](const WatchArmSite& site) {
                                return mine.count(site.target_access) == 0;
                              }),
               list.end());
    it = list.empty() ? sites->erase(it) : std::next(it);
  }
}

}  // namespace

SiteTable CompileSiteTable(const Module& module, const InstrumentationPlan& plan) {
  SiteTable table;
  table.instrs.assign(module.num_instructions(), 0);
  uint32_t blocks = 0;
  table.first_block.reserve(module.num_functions());
  for (FunctionId function = 0; function < module.num_functions(); ++function) {
    table.first_block.push_back(blocks);
    blocks += static_cast<uint32_t>(module.function(function).num_blocks());
  }
  table.blocks.assign(blocks, 0);
  auto mark = [&](InstrId instr, uint8_t flag) {
    table.instrs[instr] |= flag;
    const InstrLocation& loc = module.location(instr);
    table.blocks[table.first_block[loc.function] + loc.block] |= flag;
  };
  for (const auto& [instr, sites] : plan.arm_before) {
    mark(instr, kSiteHookBefore);
  }
  for (const auto& [instr, sites] : plan.arm_after) {
    mark(instr, kSiteHookAfter);
  }
  for (InstrId instr : plan.pt_stop_instrs) {
    mark(instr, kSitePtStop);
  }
  for (InstrId instr : plan.watch_instrs) {
    mark(instr, kSiteWatch);
  }
  for (const auto& [function, block] : plan.pt_start_blocks) {
    table.blocks[table.first_block[function] + block] |= kSitePtStart;
  }
  return table;
}

PlanSnapshot::PlanSnapshot(const Module& module, InstrumentationPlan plan,
                           uint32_t watchpoint_slots, uint64_t version, uint32_t sigma,
                           std::shared_ptr<const DecodedModule> decoded,
                           std::shared_ptr<const RotationList> rotations)
    : plan_(std::move(plan)),
      slots_(watchpoint_slots),
      version_(version),
      sigma_(sigma),
      decoded_(std::move(decoded)),
      rotations_(std::move(rotations)) {
  // Unless the caller supplied the materialized list (artifact-store reuse),
  // rotate only when some client cannot watch the whole set.
  if (rotations_ == nullptr && plan_.watch_instrs.size() > slots_) {
    rotations_ = std::make_shared<const RotationList>(BuildRotations(plan_, slots_));
  }
  if (rotation_count() == 0) {
    sites_.push_back(CompileSiteTable(module, plan_));
    return;
  }
  sites_.reserve(rotation_count());
  for (const InstrumentationPlan& rotation : *rotations_) {
    sites_.push_back(CompileSiteTable(module, rotation));
  }
}

PlanSnapshot::RotationList PlanSnapshot::BuildRotations(const InstrumentationPlan& plan,
                                                        uint32_t slots) {
  RotationList rotations;
  if (plan.watch_instrs.size() <= slots) {
    return rotations;
  }
  std::vector<InstrId> all(plan.watch_instrs.begin(), plan.watch_instrs.end());
  std::sort(all.begin(), all.end());
  rotations.reserve(all.size());
  for (size_t offset = 0; offset < all.size(); ++offset) {
    std::unordered_set<InstrId> mine;
    for (uint32_t k = 0; k < slots; ++k) {
      mine.insert(all[(offset + k) % all.size()]);
    }
    InstrumentationPlan restricted = plan;
    restricted.watch_instrs = mine;
    FilterArmSites(mine, &restricted.arm_after);
    FilterArmSites(mine, &restricted.arm_before);
    rotations.push_back(std::move(restricted));
  }
  return rotations;
}

size_t PlanSnapshot::PlanIndex(uint64_t client_index) const {
  return rotation_count() == 0 ? 0 : (client_index * slots_) % rotation_count();
}

const InstrumentationPlan& PlanSnapshot::ForClient(uint64_t client_index) const {
  return rotation_count() == 0 ? plan_ : (*rotations_)[PlanIndex(client_index)];
}

const SiteTable& PlanSnapshot::SitesForClient(uint64_t client_index) const {
  return sites_[PlanIndex(client_index)];
}

}  // namespace gist
