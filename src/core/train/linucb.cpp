#include "core/train/linucb.h"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "core/policies/greedy.h"

namespace harvest::core {

LinUcbTrainer::LinUcbTrainer(std::size_t num_actions, std::size_t dim,
                             Config config)
    : config_(config), dim_with_bias_(dim + 1) {
  if (num_actions == 0) {
    throw std::invalid_argument("LinUcbTrainer: num_actions == 0");
  }
  if (config.alpha < 0 || config.lambda <= 0) {
    throw std::invalid_argument("LinUcbTrainer: alpha >= 0, lambda > 0");
  }
  arms_.reserve(num_actions);
  for (std::size_t i = 0; i < num_actions; ++i) {
    Arm arm;
    arm.a = Matrix(dim_with_bias_, dim_with_bias_);
    for (std::size_t d = 0; d < dim_with_bias_; ++d) {
      arm.a.at(d, d) = config.lambda;
    }
    arm.b.assign(dim_with_bias_, 0.0);
    arms_.push_back(std::move(arm));
  }
}

const LinUcbTrainer::Arm& LinUcbTrainer::arm(ActionId a) const {
  if (a >= arms_.size()) throw std::out_of_range("LinUcbTrainer: bad action");
  return arms_[a];
}

double LinUcbTrainer::predict(const FeatureVector& x, ActionId a) const {
  const FeatureVector xb = x.with_bias();
  const std::vector<double> theta = cholesky_solve(arm(a).a, arm(a).b);
  return xb.dot(theta);
}

double LinUcbTrainer::bonus(const FeatureVector& x, ActionId a) const {
  const FeatureVector xb = x.with_bias();
  // x^T A^{-1} x via one solve.
  const std::vector<double> z = cholesky_solve(arm(a).a, xb.values());
  return config_.alpha * std::sqrt(std::max(0.0, xb.dot(z)));
}

ActionId LinUcbTrainer::step(const FeatureVector& x) const {
  ActionId best = 0;
  double best_score = 0;
  for (std::size_t a = 0; a < arms_.size(); ++a) {
    const auto action = static_cast<ActionId>(a);
    const double score = predict(x, action) + bonus(x, action);
    if (a == 0 || score > best_score) {
      best_score = score;
      best = action;
    }
  }
  return best;
}

void LinUcbTrainer::learn(const FeatureVector& x, ActionId a, double reward) {
  if (a >= arms_.size()) throw std::out_of_range("LinUcbTrainer: bad action");
  const FeatureVector xb = x.with_bias();
  if (xb.size() != dim_with_bias_) {
    throw std::invalid_argument("LinUcbTrainer: bad dimension");
  }
  arms_[a].a.add_outer(xb.values(), 1.0);
  for (std::size_t d = 0; d < dim_with_bias_; ++d) {
    arms_[a].b[d] += reward * xb[d];
  }
}

namespace {
/// A frozen mean-estimate model backed by solved LinUCB thetas.
class FrozenLinUcbModel final : public RewardModel {
 public:
  FrozenLinUcbModel(std::vector<std::vector<double>> thetas)
      : thetas_(std::move(thetas)) {}
  double predict(const FeatureVector& x, ActionId a) const override {
    return dot_bias_first(thetas_.at(a), x.values());
  }
  std::size_t num_actions() const override { return thetas_.size(); }
  std::string name() const override { return "linucb-frozen"; }

 private:
  std::vector<std::vector<double>> thetas_;
};
}  // namespace

PolicyPtr LinUcbTrainer::snapshot() const {
  std::vector<std::vector<double>> thetas;
  thetas.reserve(arms_.size());
  for (const auto& arm : arms_) {
    thetas.push_back(cholesky_solve(arm.a, arm.b));
  }
  return std::make_shared<GreedyPolicy>(
      std::make_shared<FrozenLinUcbModel>(std::move(thetas)),
      "linucb-snapshot");
}

}  // namespace harvest::core
