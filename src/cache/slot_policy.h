// Adapter between Evictors and the CB slot formulation of Table 1: an
// eviction decision's context is the concatenated features of the k sampled
// candidates, and the action is which slot to evict. Wrapping an Evictor as
// a core::Policy lets the §4 estimators evaluate eviction policies offline
// from harvested slot data — and exposes §5's caveat: the per-decision
// reward (time-to-next-access of the victim) is a *greedy* objective whose
// offline ranking can invert the hitrate ranking.
#pragma once

#include <memory>

#include "cache/evictor.h"
#include "core/policy.h"

namespace harvest::cache {

/// Reconstructs candidate metadata from its slot features
/// [size_kb, idle_seconds, access_rate, age_seconds] (the inverse of
/// ItemMeta::to_features, up to the evaluation timestamp, which is set to 0
/// — only feature *differences* matter to the evictors).
ItemMeta meta_from_features(const core::FeatureVector& slot_features,
                            std::size_t offset);

/// Wraps an evictor as a policy over k-slot contexts. The wrapped evictor
/// must be stateless across decisions (all Table 3 evictors except
/// GreedyDualSize qualify); it is shared, not copied.
class EvictorSlotPolicy final : public core::Policy {
 public:
  EvictorSlotPolicy(std::shared_ptr<Evictor> evictor, std::size_t slots);

  void distribution_into(const core::FeatureVector& x,
                         std::span<double> out) const override;
  std::string name() const override;

 private:
  std::shared_ptr<Evictor> evictor_;
  std::size_t slots_;
};

}  // namespace harvest::cache
