// Sequence-aware off-policy estimators — §5's proposed remedy for the A1
// violation. Where per-decision IPS weights each step by pi(a|x)/p, these
// weight by the probability of matching *sequences* of actions:
//
//   trajectory IS:   V = E[ (prod_t rho_t) * mean_t r_t ]
//   per-decision IS: V = E[ mean_t (prod_{s<=t} rho_s) * r_t ]   (Precup'00)
//   weighted (self-normalized) variants divide by the realized weight mass.
//
// All are unbiased/consistent for the candidate's *episode* value even when
// contexts depend on past actions, at the price §5 predicts: "the
// probability of matching long sequences is very low, [so] these estimators
// suffer from high variance."
#pragma once

#include <string>

#include "core/estimators/estimator.h"
#include "core/policy.h"
#include "core/reward_model.h"
#include "core/trajectory.h"

namespace harvest::core {

/// Common interface: estimate the mean per-step reward that `policy` would
/// obtain over episodes of the logged horizon.
class SequenceEstimator {
 public:
  virtual ~SequenceEstimator() = default;

  virtual Estimate evaluate(const TrajectoryDataset& data,
                            const Policy& policy,
                            double delta = 0.05) const = 0;
  virtual std::string name() const = 0;
};

/// Full-trajectory importance sampling: one weight per episode, the product
/// of per-step ratios. Unbiased under sequential ignorability; variance
/// grows exponentially with the horizon.
class TrajectoryIpsEstimator final : public SequenceEstimator {
 public:
  /// `self_normalized`: divide by the mean weight instead of 1 (weighted
  /// importance sampling) — biased but consistent, dramatically lower
  /// variance when weights are heavy-tailed.
  explicit TrajectoryIpsEstimator(bool self_normalized = false);

  Estimate evaluate(const TrajectoryDataset& data, const Policy& policy,
                    double delta = 0.05) const override;
  std::string name() const override;

 private:
  bool self_normalized_;
};

/// Per-decision importance sampling (Precup 2000): step t is weighted by
/// the product of ratios up to t only. Unbiased like trajectory IS but with
/// uniformly smaller weights, hence lower variance.
class PerDecisionIpsEstimator final : public SequenceEstimator {
 public:
  explicit PerDecisionIpsEstimator(bool self_normalized = false);

  Estimate evaluate(const TrajectoryDataset& data, const Policy& policy,
                    double delta = 0.05) const override;
  std::string name() const override;

 private:
  bool self_normalized_;
};

/// Baseline adapter: applies the (sequence-blind) single-step IPS to every
/// step of every trajectory, i.e. exactly what §4's estimator does on the
/// same data. Used by benches/tests to show what sequence weighting fixes.
class StepwiseIpsAdapter final : public SequenceEstimator {
 public:
  Estimate evaluate(const TrajectoryDataset& data, const Policy& policy,
                    double delta = 0.05) const override;
  std::string name() const override { return "stepwise-ips"; }
};

/// Doubly-robust per-decision estimator (Jiang & Li 2016, the technique §5
/// plans to leverage): uses a reward model as a per-step control variate,
///   V = E[ mean_t ( V̂(x_t) * rho_{1:t-1} + rho_{1:t} (r_t - Q̂(x_t, a_t)) ) ]
/// where Q̂ is the model and V̂(x) = sum_a pi(a|x) Q̂(x, a). Unbiased for any
/// model (the correction term has zero mean); variance shrinks with the
/// model's residuals.
class SequenceDoublyRobustEstimator final : public SequenceEstimator {
 public:
  explicit SequenceDoublyRobustEstimator(RewardModelPtr model,
                                         bool self_normalized = false);

  Estimate evaluate(const TrajectoryDataset& data, const Policy& policy,
                    double delta = 0.05) const override;
  std::string name() const override;

 private:
  RewardModelPtr model_;
  bool self_normalized_;
};

}  // namespace harvest::core
