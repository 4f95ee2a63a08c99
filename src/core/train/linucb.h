// LinUCB (Li et al. 2010): the optimism-based online contextual bandit used
// for news recommendation in the paper's lineage ([19]/[20]). Included as a
// second online learner beside EpochGreedyTrainer, and as a cautionary
// example for harvesting: LinUCB's decisions are *deterministic given its
// history and the context*, so unlike epsilon-greedy its logs carry no
// context-independent randomization and are not directly harvestable (§2's
// exploration-scavenging condition fails). The bench compares their online
// reward; the docs flag the harvesting caveat.
#pragma once

#include <vector>

#include "core/linalg.h"
#include "core/policy.h"
#include "core/reward_model.h"
#include "core/types.h"

namespace harvest::core {

/// Disjoint-arms LinUCB with ridge regularization.
class LinUcbTrainer {
 public:
  struct Config {
    double alpha = 1.0;   ///< optimism width (UCB multiplier)
    double lambda = 1.0;  ///< ridge prior on each arm's design matrix
  };

  LinUcbTrainer(std::size_t num_actions, std::size_t dim, Config config);

  /// Picks argmax_a [ theta_a^T x + alpha * sqrt(x^T A_a^{-1} x) ].
  /// Ties break toward lower action ids.
  ActionId step(const FeatureVector& x) const;

  /// Updates the chosen arm's statistics with the observed reward.
  void learn(const FeatureVector& x, ActionId a, double reward);

  /// Current greedy (no-bonus) estimate for inspection/tests.
  double predict(const FeatureVector& x, ActionId a) const;

  /// The UCB bonus alone (tests assert it shrinks with observations).
  double bonus(const FeatureVector& x, ActionId a) const;

  /// Freezes the current means into a deployable greedy policy.
  PolicyPtr snapshot() const;

  std::size_t num_actions() const { return arms_.size(); }

 private:
  struct Arm {
    Matrix a;               // A = lambda I + sum x x^T
    std::vector<double> b;  // sum r x
  };

  const Arm& arm(ActionId a) const;

  Config config_;
  std::size_t dim_with_bias_;
  std::vector<Arm> arms_;
};

}  // namespace harvest::core
