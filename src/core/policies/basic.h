// Basic policies: constants, uniform randomization, the epsilon-greedy
// wrapper, and function adapters. These model both the production
// heuristics whose randomness we harvest and the exploration wrapper used
// when simulating partial feedback.
#pragma once

#include <functional>

#include "core/policy.h"

namespace harvest::core {

/// Always plays one fixed action ("send to 1" in Table 2).
class ConstantPolicy final : public DeterministicPolicy {
 public:
  ConstantPolicy(std::size_t num_actions, ActionId action);

  ActionId choose(const FeatureVector& x) const override;
  std::string name() const override;

 private:
  ActionId action_;
};

/// Uniform randomization over all actions — the canonical harvested
/// randomness (random routing, Redis random eviction).
class UniformRandomPolicy final : public Policy {
 public:
  explicit UniformRandomPolicy(std::size_t num_actions);

  void distribution_into(const FeatureVector& x,
                         std::span<double> out) const override;
  ActionId act(const FeatureVector& x, util::Rng& rng) const override;
  double probability(const FeatureVector& x, ActionId a) const override;
  std::string name() const override { return "uniform-random"; }
};

/// With probability epsilon plays uniformly at random, otherwise follows the
/// base policy. Guarantees min propensity epsilon/|A| for every action, which
/// is what makes Eq. 1's 1/ε factor finite.
class EpsilonGreedyPolicy final : public Policy {
 public:
  EpsilonGreedyPolicy(PolicyPtr base, double epsilon);

  void distribution_into(const FeatureVector& x,
                         std::span<double> out) const override;
  /// (1 - ε)·base(a|x) + ε/K: the distribution's arithmetic for one action.
  double probability(const FeatureVector& x, ActionId a) const override;
  std::string name() const override;
  double epsilon() const { return epsilon_; }

 private:
  PolicyPtr base_;
  double epsilon_;
};

/// Adapts an arbitrary deterministic function to a policy; handy in tests
/// and for wrapping simulator heuristics.
class FunctionPolicy final : public DeterministicPolicy {
 public:
  using Chooser = std::function<ActionId(const FeatureVector&)>;

  FunctionPolicy(std::size_t num_actions, Chooser chooser, std::string name);

  ActionId choose(const FeatureVector& x) const override;
  std::string name() const override { return name_; }

 private:
  Chooser chooser_;
  std::string name_;
};

}  // namespace harvest::core
