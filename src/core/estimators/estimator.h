// Off-policy estimator interface (§4 of the paper): given exploration data
// ⟨x, a, r, p⟩ from a logged policy, estimate the average reward a candidate
// policy π would have obtained.
#pragma once

#include <memory>
#include <string>

#include "core/dataset.h"
#include "core/policy.h"
#include "stats/ci.h"

namespace harvest::core {

/// The result of evaluating one policy offline.
struct Estimate {
  double value = 0;            ///< estimated average reward of the policy
  std::size_t n = 0;           ///< datapoints consumed
  std::size_t matched = 0;     ///< points where pi gave the logged action
                               ///< nonzero probability
  double stderr_value = 0;     ///< standard error of `value`
  stats::Interval normal_ci;   ///< asymptotic-normal CI at the given delta
  stats::Interval bernstein_ci;///< finite-sample empirical-Bernstein CI
  // Weight-health diagnostics (filled by importance-weighted estimators;
  // zero for model-based ones). These are the quantities that reveal a
  // silently-broken estimate: a tiny ESS or a huge max weight means the
  // value above is dominated by a handful of points.
  double ess = 0;              ///< Kish effective sample size (Σw)²/Σw²
  double max_weight = 0;       ///< largest importance weight observed
  double clipped_fraction = 0; ///< fraction of weights the estimator clipped
};

/// Base class for all off-policy estimators.
class OffPolicyEstimator {
 public:
  virtual ~OffPolicyEstimator() = default;

  /// Estimates the value of `policy` from `data` with two-sided confidence
  /// level 1 - delta.
  virtual Estimate evaluate(const ExplorationDataset& data,
                            const Policy& policy,
                            double delta = 0.05) const = 0;

  virtual std::string name() const = 0;
};

using EstimatorPtr = std::shared_ptr<const OffPolicyEstimator>;

}  // namespace harvest::core
