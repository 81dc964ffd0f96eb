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

PlanSnapshot::PlanSnapshot(InstrumentationPlan plan, uint32_t watchpoint_slots, uint64_t version,
                           uint32_t sigma, std::shared_ptr<const DecodedModule> decoded,
                           std::shared_ptr<const RotationList> rotations)
    : plan_(std::move(plan)),
      slots_(watchpoint_slots),
      version_(version),
      sigma_(sigma),
      decoded_(std::move(decoded)),
      rotations_(std::move(rotations)) {
  if (rotations_ != nullptr) {
    return;  // caller supplied the materialized list (artifact-store reuse)
  }
  if (plan_.watch_instrs.size() <= slots_) {
    return;  // every client can watch the whole set; no rotation
  }
  rotations_ = std::make_shared<const RotationList>(BuildRotations(plan_, slots_));
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

const InstrumentationPlan& PlanSnapshot::ForClient(uint64_t client_index) const {
  if (rotations_ == nullptr || rotations_->empty()) {
    return plan_;
  }
  return (*rotations_)[(client_index * slots_) % rotations_->size()];
}

}  // namespace gist
