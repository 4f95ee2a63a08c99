// Policies derived from reward models: greedy argmax and per-action linear
// scorers. These are the deployable artifacts CB optimization produces.
#pragma once

#include "core/policy.h"
#include "core/reward_model.h"

namespace harvest::core {

/// Plays argmax_a r̂(x, a) over a fitted reward model by RewardModel::greedy,
/// core::argmax_first's rule, which core::LinearScorer follows too: ties
/// break toward the lower action id (deterministic, so off-policy
/// evaluation is exact) and a NaN prediction never wins. Over a ridge
/// model that is one LinearScorer pass per context.
class GreedyPolicy final : public DeterministicPolicy {
 public:
  GreedyPolicy(RewardModelPtr model, std::string name = "greedy");

  ActionId choose(const FeatureVector& x) const override;
  std::string name() const override { return name_; }
  const RewardModel& model() const { return *model_; }

 private:
  RewardModelPtr model_;
  std::string name_;
};

/// Plays argmax_a (w_a · [1, x]) for externally supplied weight vectors —
/// the "linear vectors" policy template of §4 — by a core::LinearScorer
/// built at construction.
/// Unlike GreedyPolicy it does not own a learner, so it can represent
/// arbitrary members of a policy class during enumeration.
class LinearPolicy final : public DeterministicPolicy {
 public:
  /// `weights[a]` has length dim+1 (bias first); the rows are laid end to
  /// end by core::flatten_rows, which throws on empty or ragged rows.
  LinearPolicy(const std::vector<std::vector<double>>& weights,
               std::string name = "linear");

  /// Throws std::invalid_argument unless x.size() == dim.
  ActionId choose(const FeatureVector& x) const override;
  std::string name() const override { return name_; }

 private:
  LinearScorer scorer_;
  std::string name_;
};

/// Single-feature threshold rule: plays `above` if x[feature] >= threshold,
/// else `below`. The enumerable building block of our policy classes
/// (decision stumps).
class ThresholdPolicy final : public DeterministicPolicy {
 public:
  ThresholdPolicy(std::size_t num_actions, std::size_t feature,
                  double threshold, ActionId below, ActionId above);

  ActionId choose(const FeatureVector& x) const override;
  std::string name() const override;

  std::size_t feature() const { return feature_; }
  double threshold() const { return threshold_; }

 private:
  std::size_t feature_;
  double threshold_;
  ActionId below_, above_;
};

}  // namespace harvest::core
