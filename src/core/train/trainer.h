// Policy optimization (§4, Fig. 4): learning a policy from exploration data.
//
// The offline CB trainer is a cost-sensitive reduction: fit an importance-
// weighted per-action reward regressor and act greedily. The supervised
// trainer is the idealized full-feedback skyline the paper compares against.
// The epoch-greedy trainer is the classic online CB algorithm (Langford &
// Zhang 2007) that both learns and *generates* exploration data.
#pragma once

#include <memory>

#include "core/dataset.h"
#include "core/policies/basic.h"
#include "core/policies/greedy.h"
#include "core/reward_model.h"

namespace harvest::core {

/// Hyperparameters shared by the batch trainers.
struct TrainConfig {
  double ridge_lambda = 1.0;       ///< L2 regularization strength
  bool importance_weighted = true; ///< weight samples by 1/p (CB correction)
};

/// Offline CB optimization from ⟨x, a, r, p⟩: importance-weighted ridge
/// regression per action, then greedy. This is the "CB algorithm for policy
/// optimization" used throughout §4 and §5.
PolicyPtr train_cb_policy(const ExplorationDataset& data, TrainConfig config);

/// Same, but also exposes the underlying reward model (needed to build DM/DR
/// estimators on the side).
std::pair<PolicyPtr, RewardModelPtr> train_cb_policy_with_model(
    const ExplorationDataset& data, TrainConfig config);

/// Supervised skyline: fits on full feedback (every action observed for
/// every context) and acts greedily. Not deployable long-term — once live,
/// it would only receive partial feedback (§4) — but it bounds what any
/// learner could achieve.
PolicyPtr train_supervised_policy(const FullFeedbackDataset& data,
                                  TrainConfig config);

/// Epoch-greedy online contextual bandit: alternates exploration steps
/// (uniform action, logged with propensity 1/|A|) and exploitation steps
/// (greedy on the SGD model learned so far from exploration samples).
class EpochGreedyTrainer {
 public:
  struct Config {
    double explore_fraction = 0.1;  ///< share of steps that explore
    double learning_rate = 0.1;
    double l2 = 0.0;
  };

  EpochGreedyTrainer(std::size_t num_actions, std::size_t dim, Config config);

  /// One interaction: returns the action to play for `x`.
  ActionId step(const FeatureVector& x, util::Rng& rng);

  /// Feeds back the reward of the action returned by the last `step`.
  /// All steps update the per-action regressors (conditional means are
  /// identified from any selection rule); exploration steps additionally
  /// yield propensity-scored log entries.
  void learn(const FeatureVector& x, ActionId a, double reward);

  /// Probability the trainer assigns to the action it just took (for
  /// logging exploration data).
  double last_propensity() const { return last_propensity_; }

  /// Greedy snapshot of the current model.
  PolicyPtr snapshot() const;

  std::size_t explore_steps() const { return explore_steps_; }
  std::size_t exploit_steps() const { return exploit_steps_; }

 private:
  std::size_t num_actions_;
  Config config_;
  std::shared_ptr<SgdRewardModel> model_;
  GreedyPolicy greedy_;  ///< exploitation steps: argmax over model_
  bool last_was_explore_ = false;
  double last_propensity_ = 1.0;
  std::size_t explore_steps_ = 0;
  std::size_t exploit_steps_ = 0;
};

}  // namespace harvest::core
