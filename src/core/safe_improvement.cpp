#include "core/safe_improvement.h"

#include <stdexcept>

namespace harvest::core {

SafetyVerdict safe_improvement(const ExplorationDataset& data,
                               const Policy& candidate,
                               const OffPolicyEstimator& estimator,
                               double baseline_value, SafetyConfig config) {
  if (config.delta <= 0 || config.delta >= 1) {
    throw std::invalid_argument("safe_improvement: delta in (0,1)");
  }
  if (config.required_improvement < 0) {
    throw std::invalid_argument(
        "safe_improvement: required_improvement >= 0");
  }
  SafetyVerdict verdict;
  verdict.policy_name = candidate.name();
  verdict.estimate = estimator.evaluate(data, candidate, config.delta);
  verdict.baseline_value = baseline_value;
  const double lower = config.finite_sample
                           ? verdict.estimate.bernstein_ci.lo
                           : verdict.estimate.normal_ci.lo;
  verdict.margin = lower - baseline_value - config.required_improvement;
  verdict.deployable = verdict.margin > 0;
  return verdict;
}

}  // namespace harvest::core
