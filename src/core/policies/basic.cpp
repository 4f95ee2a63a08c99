#include "core/policies/basic.h"

#include <algorithm>
#include <stdexcept>

namespace harvest::core {

ConstantPolicy::ConstantPolicy(std::size_t num_actions, ActionId action)
    : DeterministicPolicy(num_actions), action_(action) {
  if (action >= num_actions) {
    throw std::invalid_argument("ConstantPolicy: action out of range");
  }
}

ActionId ConstantPolicy::choose(const FeatureVector& /*x*/) const {
  return action_;
}

std::string ConstantPolicy::name() const {
  return "constant(" + std::to_string(action_) + ")";
}

UniformRandomPolicy::UniformRandomPolicy(std::size_t num_actions)
    : Policy(num_actions) {
  if (num_actions == 0) {
    throw std::invalid_argument("UniformRandomPolicy: no actions");
  }
}

void UniformRandomPolicy::distribution_into(const FeatureVector& /*x*/,
                                            std::span<double> out) const {
  check_distribution_size(out);
  std::fill(out.begin(), out.end(), 1.0 / static_cast<double>(num_actions()));
}

ActionId UniformRandomPolicy::act(const FeatureVector& /*x*/,
                                  util::Rng& rng) const {
  return static_cast<ActionId>(rng.uniform_index(num_actions()));
}

double UniformRandomPolicy::probability(const FeatureVector& /*x*/,
                                        ActionId a) const {
  if (a >= num_actions()) {
    throw std::out_of_range("UniformRandomPolicy::probability");
  }
  return 1.0 / static_cast<double>(num_actions());
}

EpsilonGreedyPolicy::EpsilonGreedyPolicy(PolicyPtr base, double epsilon)
    : Policy(base ? base->num_actions() : 0),
      base_(std::move(base)),
      epsilon_(epsilon) {
  if (!base_) throw std::invalid_argument("EpsilonGreedyPolicy: null base");
  if (epsilon < 0 || epsilon > 1) {
    throw std::invalid_argument("EpsilonGreedyPolicy: epsilon in [0,1]");
  }
}

void EpsilonGreedyPolicy::distribution_into(const FeatureVector& x,
                                            std::span<double> out) const {
  check_distribution_size(out);
  base_->distribution_into(x, out);
  const double uniform = epsilon_ / static_cast<double>(num_actions());
  for (double& p : out) p = (1.0 - epsilon_) * p + uniform;
}

double EpsilonGreedyPolicy::probability(const FeatureVector& x,
                                        ActionId a) const {
  if (a >= num_actions()) {
    throw std::out_of_range("EpsilonGreedyPolicy::probability");
  }
  const double uniform = epsilon_ / static_cast<double>(num_actions());
  return (1.0 - epsilon_) * base_->probability(x, a) + uniform;
}

std::string EpsilonGreedyPolicy::name() const {
  return "eps-greedy(" + std::to_string(epsilon_) + ", " + base_->name() + ")";
}

FunctionPolicy::FunctionPolicy(std::size_t num_actions, Chooser chooser,
                               std::string name)
    : DeterministicPolicy(num_actions),
      chooser_(std::move(chooser)),
      name_(std::move(name)) {
  if (!chooser_) throw std::invalid_argument("FunctionPolicy: null chooser");
}

ActionId FunctionPolicy::choose(const FeatureVector& x) const {
  const ActionId a = chooser_(x);
  if (a >= num_actions()) {
    throw std::logic_error("FunctionPolicy: chooser returned bad action");
  }
  return a;
}

}  // namespace harvest::core
