#include "core/policies/greedy.h"

#include <stdexcept>

#include "core/linalg.h"

namespace harvest::core {

GreedyPolicy::GreedyPolicy(RewardModelPtr model, std::string name)
    : DeterministicPolicy(model ? model->num_actions() : 0),
      model_(std::move(model)),
      name_(std::move(name)) {
  if (!model_) throw std::invalid_argument("GreedyPolicy: null model");
}

ActionId GreedyPolicy::choose(const FeatureVector& x) const {
  ActionId best = 0;
  double best_score = model_->predict(x, 0);
  for (std::size_t a = 1; a < num_actions(); ++a) {
    const double s = model_->predict(x, static_cast<ActionId>(a));
    if (s > best_score) {
      best_score = s;
      best = static_cast<ActionId>(a);
    }
  }
  return best;
}

LinearPolicy::LinearPolicy(std::vector<std::vector<double>> weights,
                           std::string name)
    : DeterministicPolicy(weights.size()),
      weights_(std::move(weights)),
      name_(std::move(name)) {
  if (weights_.empty()) throw std::invalid_argument("LinearPolicy: empty");
  const std::size_t dim = weights_.front().size();
  for (const auto& w : weights_) {
    if (w.size() != dim || dim == 0) {
      throw std::invalid_argument("LinearPolicy: ragged weights");
    }
  }
}

ActionId LinearPolicy::choose(const FeatureVector& x) const {
  ActionId best = 0;
  double best_score = dot_bias_first(weights_[0], x.values());
  for (std::size_t a = 1; a < weights_.size(); ++a) {
    const double s = dot_bias_first(weights_[a], x.values());
    if (s > best_score) {
      best_score = s;
      best = static_cast<ActionId>(a);
    }
  }
  return best;
}

ThresholdPolicy::ThresholdPolicy(std::size_t num_actions, std::size_t feature,
                                 double threshold, ActionId below,
                                 ActionId above)
    : DeterministicPolicy(num_actions),
      feature_(feature),
      threshold_(threshold),
      below_(below),
      above_(above) {
  if (below >= num_actions || above >= num_actions) {
    throw std::invalid_argument("ThresholdPolicy: action out of range");
  }
}

ActionId ThresholdPolicy::choose(const FeatureVector& x) const {
  if (feature_ >= x.size()) {
    throw std::out_of_range("ThresholdPolicy: feature index out of range");
  }
  return x[feature_] >= threshold_ ? above_ : below_;
}

std::string ThresholdPolicy::name() const {
  return "stump(f" + std::to_string(feature_) + ">=" +
         std::to_string(threshold_) + " ? " + std::to_string(above_) + " : " +
         std::to_string(below_) + ")";
}

}  // namespace harvest::core
