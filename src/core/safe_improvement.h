// High-confidence policy improvement (Thomas et al. 2015 — the paper's
// reference [40], and the deployment discipline its §4 conclusion implies:
// "enough to conclude with high confidence that the learned policy
// outperforms the default"). A candidate is recommended for deployment only
// when its off-policy confidence interval's *lower bound* clears the
// incumbent's value — turning harvested logs into a deployment gate instead
// of a point estimate.
#pragma once

#include <string>

#include "core/dataset.h"
#include "core/estimators/estimator.h"
#include "core/policy.h"

namespace harvest::core {

/// One candidate's deployment verdict.
struct SafetyVerdict {
  std::string policy_name;
  Estimate estimate;
  double baseline_value = 0;
  /// The gate: estimate's lower confidence bound minus the baseline.
  double margin = 0;
  bool deployable = false;
};

/// Gate configuration.
struct SafetyConfig {
  double delta = 0.05;  ///< confidence level of the lower bound
  /// Use the finite-sample empirical-Bernstein bound instead of the
  /// asymptotic normal one (stricter, distribution-free).
  bool finite_sample = false;
  /// Extra margin the candidate must clear beyond the baseline (deploying
  /// has switching costs; require a real improvement).
  double required_improvement = 0.0;
};

/// Evaluates `candidate` on harvested data and gates it against a known
/// baseline value (e.g. the logged policy's realized mean reward).
SafetyVerdict safe_improvement(const ExplorationDataset& data,
                               const Policy& candidate,
                               const OffPolicyEstimator& estimator,
                               double baseline_value,
                               SafetyConfig config = {});

}  // namespace harvest::core
