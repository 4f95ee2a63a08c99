// Model-based estimators: the Direct Method (plug in a reward model) and the
// Doubly Robust combination of DM with IPS (Dudík, Langford & Li 2011) —
// the technique §5 proposes for taming IPS variance.
#pragma once

#include <span>

#include "core/estimators/estimator.h"
#include "core/reward_model.h"

namespace harvest::core {

/// sum_a pi(a|x) r̂(x, a) over the actions pi plays: the model term of DM,
/// DR, SWITCH and the sequence DR. Writes pi(·|x) into `dist` and r̂(x, ·)
/// into `rhat` (each of size num_actions, one RewardModel::predict_all
/// call) on the way, so a caller sweeping a dataset reuses two buffers per
/// shard and can read pi(a|x) and r̂(x, a) from them afterwards.
double expected_model_reward(const RewardModel& model, const Policy& policy,
                             const FeatureVector& x, std::span<double> dist,
                             std::span<double> rhat);

/// DM(pi) = 1/N * sum_t sum_a pi(a|x_t) r̂(x_t, a).
/// Zero variance from action mismatch, but inherits all of the reward
/// model's bias — the "model-based approaches tend to be biased" of §2.
class DirectMethodEstimator final : public OffPolicyEstimator {
 public:
  explicit DirectMethodEstimator(RewardModelPtr model);

  Estimate evaluate(const ExplorationDataset& data, const Policy& policy,
                    double delta = 0.05) const override;
  std::string name() const override { return "direct-method"; }

 private:
  RewardModelPtr model_;
};

/// DR(pi) = DM(pi) + 1/N * sum_t pi(a_t|x_t)/p_t * (r_t - r̂(x_t, a_t)).
/// Unbiased if *either* the propensities or the reward model are correct;
/// variance shrinks with the model's residuals.
class DoublyRobustEstimator final : public OffPolicyEstimator {
 public:
  explicit DoublyRobustEstimator(RewardModelPtr model);

  Estimate evaluate(const ExplorationDataset& data, const Policy& policy,
                    double delta = 0.05) const override;
  std::string name() const override { return "doubly-robust"; }

 private:
  RewardModelPtr model_;
};

}  // namespace harvest::core
