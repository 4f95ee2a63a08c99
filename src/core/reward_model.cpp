#include "core/reward_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "par/parallel.h"

namespace harvest::core {

void RewardModel::predict_all(const FeatureVector& x,
                              std::span<double> out) const {
  if (out.size() != num_actions()) {
    throw std::invalid_argument("RewardModel::predict_all: size mismatch");
  }
  for (std::size_t a = 0; a < out.size(); ++a) {
    out[a] = predict(x, static_cast<ActionId>(a));
  }
}

ActionId RewardModel::greedy(const FeatureVector& x) const {
  return static_cast<ActionId>(argmax_first(num_actions(), [&](std::size_t a) {
    return predict(x, static_cast<ActionId>(a));
  }));
}

RidgeRewardModel::RidgeRewardModel(std::size_t num_actions, std::size_t dim,
                                   double lambda)
    : dim_with_bias_(dim + 1), lambda_(lambda), per_action_(num_actions) {
  if (num_actions == 0) {
    throw std::invalid_argument("RidgeRewardModel: num_actions == 0");
  }
  if (lambda <= 0) {
    throw std::invalid_argument("RidgeRewardModel: lambda must be > 0");
  }
  for (auto& pa : per_action_) {
    pa.xtx = Matrix(dim_with_bias_, dim_with_bias_);
    pa.xty.assign(dim_with_bias_, 0.0);
  }
  clear_observations();
}

void RidgeRewardModel::clear_observations() {
  for (auto& pa : per_action_) {
    const std::span<double> m = pa.xtx.values();
    std::fill(m.begin(), m.end(), 0.0);
    for (std::size_t i = 0; i < dim_with_bias_; ++i) {
      m[i * dim_with_bias_ + i] = lambda_;
    }
    std::fill(pa.xty.begin(), pa.xty.end(), 0.0);
    pa.total_weight = 0;
  }
  fitted_ = false;
}

// Cache-line aligned, for the placement reason PolicySnapshot::decide
// gives (serve/snapshot.cpp).
__attribute__((aligned(64))) void RidgeRewardModel::observe(
    std::span<const double> x, ActionId a, double reward, double weight) {
  if (a >= per_action_.size()) {
    throw std::out_of_range("RidgeRewardModel::observe: bad action");
  }
  if (x.size() + 1 != dim_with_bias_) {
    throw std::invalid_argument("RidgeRewardModel::observe: bad dimension");
  }
  auto& pa = per_action_[a];
  fold_weighted_sample(pa.xtx.values(), pa.xty, x, reward, weight);
  pa.total_weight += weight;
  fitted_ = false;
}

void RidgeRewardModel::merge_observations(const RidgeRewardModel& other) {
  if (other.per_action_.size() != per_action_.size() ||
      other.dim_with_bias_ != dim_with_bias_ || other.lambda_ != lambda_) {
    throw std::invalid_argument(
        "RidgeRewardModel::merge_observations: shape/lambda mismatch");
  }
  const std::size_t n = dim_with_bias_;
  for (std::size_t a = 0; a < per_action_.size(); ++a) {
    auto& pa = per_action_[a];
    const auto& opa = other.per_action_[a];
    const std::span<double> m = pa.xtx.values();
    const std::span<const double> o = opa.xtx.values();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < i; ++j) m[i * n + j] += o[i * n + j];
      // Subtract the other model's lambda*I so the prior enters once.
      m[i * n + i] += o[i * n + i] - lambda_;
      pa.xty[i] += opa.xty[i];
    }
    pa.total_weight += opa.total_weight;
  }
  fitted_ = false;
}

void RidgeRewardModel::fit() {
  coef_.clear();
  for (const auto& pa : per_action_) {
    const std::vector<double> solved = cholesky_solve(pa.xtx, pa.xty);
    coef_.insert(coef_.end(), solved.begin(), solved.end());
  }
  scorer_ = LinearScorer(coef_, per_action_.size());
  fitted_ = true;
}

double RidgeRewardModel::predict(const FeatureVector& x, ActionId a) const {
  if (a >= per_action_.size()) {
    throw std::out_of_range("RidgeRewardModel::predict: bad action");
  }
  if (!fitted_) {
    throw std::logic_error("RidgeRewardModel::predict before fit()");
  }
  return dot_bias_first(
      std::span<const double>(coef_.data() + a * dim_with_bias_,
                              dim_with_bias_),
      x.values());
}

void RidgeRewardModel::predict_all(const FeatureVector& x,
                                   std::span<double> out) const {
  if (!fitted_) {
    throw std::logic_error("RidgeRewardModel::predict_all before fit()");
  }
  scorer_.scores(x.values(), out);
}

ActionId RidgeRewardModel::greedy(const FeatureVector& x) const {
  if (!fitted_) throw std::logic_error("RidgeRewardModel::greedy before fit()");
  return static_cast<ActionId>(scorer_.argmax(x.values()));
}

std::span<const double> RidgeRewardModel::coefficients() const {
  if (!fitted_) throw std::logic_error("RidgeRewardModel used before fit()");
  return coef_;
}

std::span<const double> RidgeRewardModel::weights(ActionId a) const {
  if (a >= per_action_.size()) {
    throw std::out_of_range("RidgeRewardModel: bad action");
  }
  return coefficients().subspan(a * dim_with_bias_, dim_with_bias_);
}

double RidgeRewardModel::observation_weight(ActionId a) const {
  if (a >= per_action_.size()) {
    throw std::out_of_range("RidgeRewardModel::observation_weight");
  }
  return per_action_[a].total_weight;
}

SgdRewardModel::SgdRewardModel(std::size_t num_actions, std::size_t dim,
                               double learning_rate, double l2)
    : learning_rate_(learning_rate),
      l2_(l2),
      weights_(num_actions, std::vector<double>(dim + 1, 0.0)),
      updates_(num_actions, 0) {
  if (num_actions == 0) {
    throw std::invalid_argument("SgdRewardModel: num_actions == 0");
  }
  if (learning_rate <= 0) {
    throw std::invalid_argument("SgdRewardModel: learning_rate > 0");
  }
}

void SgdRewardModel::update(const FeatureVector& x, ActionId a, double reward,
                            double weight) {
  if (a >= weights_.size()) {
    throw std::out_of_range("SgdRewardModel::update: bad action");
  }
  auto& w = weights_[a];
  const FeatureVector xb = x.with_bias();
  if (xb.size() != w.size()) {
    throw std::invalid_argument("SgdRewardModel::update: bad dimension");
  }
  // Normalized LMS with a decaying rate: dividing by ||x||^2 makes the
  // step scale-invariant (health contexts mix 0/1 flags with counts up to
  // 20), and the sqrt decay keeps the iterate stable under importance
  // weights.
  double norm2 = 0;
  for (std::size_t i = 0; i < xb.size(); ++i) norm2 += xb[i] * xb[i];
  const double step =
      learning_rate_ /
      (norm2 * std::sqrt(1.0 + static_cast<double>(updates_[a]) / 100.0));
  const double err = xb.dot(w) - reward;
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] -= step * weight * (err * xb[i] + l2_ * w[i]);
  }
  ++updates_[a];
}

double SgdRewardModel::predict(const FeatureVector& x, ActionId a) const {
  if (a >= weights_.size()) {
    throw std::out_of_range("SgdRewardModel::predict: bad action");
  }
  return dot_bias_first(weights_[a], x.values());
}

// Both fitters accumulate X^T W X / X^T W y in per-shard models and merge
// them in shard order. The shard plan depends only on n, so the fitted
// coefficients are identical for any --threads value.

RidgeRewardModel fit_ridge(const ExplorationDataset& data, double lambda,
                           bool importance_weighted) {
  if (data.empty()) throw std::invalid_argument("fit_ridge: empty data");
  const std::size_t dim = data[0].context.size();
  const auto& pts = data.points();
  RidgeRewardModel model = par::parallel_reduce(
      par::default_pool(), par::ShardPlan::fixed(pts.size()),
      RidgeRewardModel(data.num_actions(), dim, lambda),
      [&](std::size_t, std::size_t begin, std::size_t end) {
        RidgeRewardModel shard(data.num_actions(), dim, lambda);
        for (std::size_t i = begin; i < end; ++i) {
          const auto& pt = pts[i];
          const double w = importance_weighted ? 1.0 / pt.propensity : 1.0;
          shard.observe(pt.context, pt.action, pt.reward, w);
        }
        return shard;
      },
      [](RidgeRewardModel acc, const RidgeRewardModel& shard) {
        acc.merge_observations(shard);
        return acc;
      });
  model.fit();
  return model;
}

RidgeRewardModel fit_ridge_full(const FullFeedbackDataset& data,
                                double lambda) {
  if (data.empty()) throw std::invalid_argument("fit_ridge_full: empty data");
  const std::size_t dim = data[0].context.size();
  const auto& pts = data.points();
  const std::size_t num_actions = data.num_actions();
  RidgeRewardModel model = par::parallel_reduce(
      par::default_pool(), par::ShardPlan::fixed(pts.size()),
      RidgeRewardModel(num_actions, dim, lambda),
      [&](std::size_t, std::size_t begin, std::size_t end) {
        RidgeRewardModel shard(num_actions, dim, lambda);
        for (std::size_t i = begin; i < end; ++i) {
          const auto& pt = pts[i];
          for (std::size_t a = 0; a < num_actions; ++a) {
            shard.observe(pt.context, static_cast<ActionId>(a), pt.rewards[a]);
          }
        }
        return shard;
      },
      [](RidgeRewardModel acc, const RidgeRewardModel& shard) {
        acc.merge_observations(shard);
        return acc;
      });
  model.fit();
  return model;
}

}  // namespace harvest::core
