// The Policy abstraction: a (possibly randomized) mapping from contexts to
// actions. Both the logged production heuristics (random routing, sampled
// eviction) and the learned CB policies implement this interface, which is
// what lets one codebase both *generate* exploration data and *consume* it.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/types.h"
#include "util/rng.h"

namespace harvest::core {

/// A decision policy over a fixed action set.
///
/// `distribution_into(x, out)` writes the full conditional distribution
/// π(·|x); it is what off-policy estimators need (both as the logging
/// propensity source and as the candidate policy's matching weight), and it
/// is the one virtual every policy implements. It writes into a caller-owned
/// buffer, so an estimator sweeping a dataset reuses one buffer per shard
/// instead of allocating per row. `distribution` and `probability` return
/// the same doubles bit-for-bit; `act` draws from it.
class Policy {
 public:
  explicit Policy(std::size_t num_actions) : num_actions_(num_actions) {}
  virtual ~Policy() = default;

  Policy(const Policy&) = delete;
  Policy& operator=(const Policy&) = delete;

  std::size_t num_actions() const { return num_actions_; }

  /// Writes π(·|x) into `out`: probabilities over all actions; sums to 1.
  /// Throws std::invalid_argument unless out.size() == num_actions().
  virtual void distribution_into(const FeatureVector& x,
                                 std::span<double> out) const = 0;

  /// π(·|x) in a fresh vector (allocates; calls distribution_into).
  std::vector<double> distribution(const FeatureVector& x) const;

  /// Samples an action from distribution(x). Deterministic subclasses
  /// override this to skip the sampling.
  virtual ActionId act(const FeatureVector& x, util::Rng& rng) const;

  /// π(a|x) for a single action; default computes the full distribution.
  virtual double probability(const FeatureVector& x, ActionId a) const;

  virtual std::string name() const = 0;

 protected:
  /// The size check every distribution_into override starts with.
  void check_distribution_size(std::span<const double> out) const;

 private:
  std::size_t num_actions_;
};

/// Base for policies that always pick one action per context.
class DeterministicPolicy : public Policy {
 public:
  using Policy::Policy;

  /// The single action chosen for `x`.
  virtual ActionId choose(const FeatureVector& x) const = 0;

  void distribution_into(const FeatureVector& x,
                         std::span<double> out) const override;
  ActionId act(const FeatureVector& x, util::Rng& rng) const override;
  double probability(const FeatureVector& x, ActionId a) const override;
};

using PolicyPtr = std::shared_ptr<const Policy>;

}  // namespace harvest::core
