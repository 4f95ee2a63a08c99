#include "core/policy.h"

#include <algorithm>
#include <stdexcept>

namespace harvest::core {

std::vector<double> Policy::distribution(const FeatureVector& x) const {
  std::vector<double> dist(num_actions());
  distribution_into(x, dist);
  return dist;
}

void Policy::check_distribution_size(std::span<const double> out) const {
  if (out.size() != num_actions()) {
    throw std::invalid_argument(name() +
                                ": distribution buffer size != num_actions");
  }
}

ActionId Policy::act(const FeatureVector& x, util::Rng& rng) const {
  const std::vector<double> dist = distribution(x);
  return static_cast<ActionId>(rng.categorical(dist));
}

double Policy::probability(const FeatureVector& x, ActionId a) const {
  if (a >= num_actions()) throw std::out_of_range("Policy::probability");
  return distribution(x)[a];
}

void DeterministicPolicy::distribution_into(const FeatureVector& x,
                                            std::span<double> out) const {
  check_distribution_size(out);
  std::fill(out.begin(), out.end(), 0.0);
  out[choose(x)] = 1.0;
}

ActionId DeterministicPolicy::act(const FeatureVector& x,
                                  util::Rng& /*rng*/) const {
  return choose(x);
}

double DeterministicPolicy::probability(const FeatureVector& x,
                                        ActionId a) const {
  if (a >= num_actions()) {
    throw std::out_of_range("DeterministicPolicy::probability");
  }
  return choose(x) == a ? 1.0 : 0.0;
}

}  // namespace harvest::core
