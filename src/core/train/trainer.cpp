#include "core/train/trainer.h"

#include <stdexcept>

namespace harvest::core {

std::pair<PolicyPtr, RewardModelPtr> train_cb_policy_with_model(
    const ExplorationDataset& data, TrainConfig config) {
  auto model = std::make_shared<RidgeRewardModel>(
      fit_ridge(data, config.ridge_lambda, config.importance_weighted));
  auto policy = std::make_shared<GreedyPolicy>(model, "cb-policy");
  return {std::move(policy), std::move(model)};
}

PolicyPtr train_cb_policy(const ExplorationDataset& data, TrainConfig config) {
  return train_cb_policy_with_model(data, config).first;
}

PolicyPtr train_supervised_policy(const FullFeedbackDataset& data,
                                  TrainConfig config) {
  auto model = std::make_shared<RidgeRewardModel>(
      fit_ridge_full(data, config.ridge_lambda));
  return std::make_shared<GreedyPolicy>(std::move(model), "supervised");
}

EpochGreedyTrainer::EpochGreedyTrainer(std::size_t num_actions,
                                       std::size_t dim, Config config)
    : num_actions_(num_actions),
      config_(config),
      model_(std::make_shared<SgdRewardModel>(num_actions, dim,
                                              config.learning_rate,
                                              config.l2)),
      greedy_(model_, "epoch-greedy") {
  if (num_actions == 0) {
    throw std::invalid_argument("EpochGreedyTrainer: no actions");
  }
  if (config.explore_fraction <= 0 || config.explore_fraction > 1) {
    throw std::invalid_argument(
        "EpochGreedyTrainer: explore_fraction in (0,1]");
  }
}

ActionId EpochGreedyTrainer::step(const FeatureVector& x, util::Rng& rng) {
  last_was_explore_ = rng.bernoulli(config_.explore_fraction);
  if (last_was_explore_) {
    ++explore_steps_;
    last_propensity_ = config_.explore_fraction /
                       static_cast<double>(num_actions_);
    return static_cast<ActionId>(rng.uniform_index(num_actions_));
  }
  ++exploit_steps_;
  // Exploitation propensity: (1 - explore) for greedy plus the uniform slice.
  last_propensity_ = (1.0 - config_.explore_fraction) +
                     config_.explore_fraction /
                         static_cast<double>(num_actions_);
  return greedy_.choose(x);
}

void EpochGreedyTrainer::learn(const FeatureVector& x, ActionId a,
                               double reward) {
  // Both exploration and exploitation feedback train the per-action
  // regressors: E[r | x, a] is identified from any (x, a, r) sample
  // regardless of how `a` was selected, and greedy arms see most of the
  // traffic. (Only the *exploration* steps' logs are exportable as
  // propensity-scored data; see last_propensity().)
  model_->update(x, a, reward);
}

PolicyPtr EpochGreedyTrainer::snapshot() const {
  return std::make_shared<GreedyPolicy>(model_, "epoch-greedy-snapshot");
}

}  // namespace harvest::core
