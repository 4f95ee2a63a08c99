#include "cache/slot_policy.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace harvest::cache {

ItemMeta meta_from_features(const core::FeatureVector& slot_features,
                            std::size_t offset) {
  if (offset + ItemMeta::kNumFeatures > slot_features.size()) {
    throw std::out_of_range("meta_from_features: offset past context end");
  }
  const double size_kb = slot_features[offset];
  const double idle = slot_features[offset + 1];
  const double rate = slot_features[offset + 2];
  const double age = slot_features[offset + 3];

  // Evaluation timestamp fixed at 0; times go backwards from there.
  ItemMeta meta;
  meta.size_bytes = static_cast<std::size_t>(std::llround(size_kb * 1024.0));
  if (meta.size_bytes == 0) meta.size_bytes = 1;
  meta.last_access = -idle;
  meta.insert_time = -age;
  const double window = age > ItemMeta::kMinRateWindow
                            ? age
                            : ItemMeta::kMinRateWindow;
  const auto count = static_cast<std::uint64_t>(
      std::llround(std::max(1.0, rate * window)));
  meta.access_count = count;
  return meta;
}

EvictorSlotPolicy::EvictorSlotPolicy(std::shared_ptr<Evictor> evictor,
                                     std::size_t slots)
    : core::Policy(slots), evictor_(std::move(evictor)), slots_(slots) {
  if (!evictor_) throw std::invalid_argument("EvictorSlotPolicy: null");
  if (slots == 0) throw std::invalid_argument("EvictorSlotPolicy: 0 slots");
}

void EvictorSlotPolicy::distribution_into(const core::FeatureVector& x,
                                          std::span<double> out) const {
  check_distribution_size(out);
  if (x.size() != slots_ * ItemMeta::kNumFeatures) {
    throw std::invalid_argument(
        "EvictorSlotPolicy: context size != slots * features");
  }
  std::vector<ItemMeta> candidates;
  candidates.reserve(slots_);
  for (std::size_t s = 0; s < slots_; ++s) {
    ItemMeta meta = meta_from_features(x, s * ItemMeta::kNumFeatures);
    meta.key = s;  // identity is irrelevant to the choice
    candidates.push_back(meta);
  }
  const std::vector<double> dist =
      evictor_->distribution(candidates, /*now=*/0.0);
  if (dist.size() != slots_) {
    throw std::logic_error("EvictorSlotPolicy: evictor distribution size");
  }
  std::copy(dist.begin(), dist.end(), out.begin());
}

std::string EvictorSlotPolicy::name() const {
  return "slot(" + evictor_->name() + ")";
}

}  // namespace harvest::cache
