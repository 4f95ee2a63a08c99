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
  return model_->greedy(x);
}

LinearPolicy::LinearPolicy(const std::vector<std::vector<double>>& weights,
                           std::string name)
    : DeterministicPolicy(weights.size()),
      scorer_(flatten_rows(weights), weights.size()),
      name_(std::move(name)) {}

ActionId LinearPolicy::choose(const FeatureVector& x) const {
  return static_cast<ActionId>(scorer_.argmax(x.values()));
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
