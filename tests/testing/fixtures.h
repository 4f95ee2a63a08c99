// Shared synthetic-environment builders for the property suites. These used
// to be duplicated per test file; the determinism suite reuses them too, so
// any change to an environment here deliberately shows up in every suite
// that samples from it.
#pragma once

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/policies/basic.h"
#include "core/policy.h"
#include "core/trajectory.h"
#include "lb/frontdoor.h"
#include "lb/routers.h"
#include "util/rng.h"

namespace harvest::testing {

/// Synthetic bandit environment: 3 actions, reward of action a for context x
/// is a known deterministic function; context scalar drawn uniform in [0,1].
inline core::FullFeedbackDataset make_environment(std::size_t n,
                                                  util::Rng& rng) {
  core::FullFeedbackDataset data(3, core::RewardRange{0, 1});
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.uniform();
    data.add(core::FullFeedbackPoint{
        core::FeatureVector{x},
        {0.5 * x + 0.2, 0.9 - 0.6 * x, 0.5}});
  }
  return data;
}

/// Logging policies of increasing structure: uniform, epsilon-greedy around
/// a constant, and context-dependent randomized.
inline core::PolicyPtr make_logging_policy(int kind) {
  switch (kind) {
    case 0:
      return std::make_shared<core::UniformRandomPolicy>(3);
    case 1:
      return std::make_shared<core::EpsilonGreedyPolicy>(
          std::make_shared<core::ConstantPolicy>(3, 1), 0.3);
    default: {
      // Context-dependent randomized logging.
      auto base = std::make_shared<core::FunctionPolicy>(
          3,
          [](const core::FeatureVector& x) { return x[0] > 0.5 ? 0u : 2u; },
          "ctx-split");
      return std::make_shared<core::EpsilonGreedyPolicy>(base, 0.5);
    }
  }
}

/// Candidate policies: constant, threshold on the context, and uniform.
inline core::PolicyPtr make_candidate_policy(int kind) {
  switch (kind) {
    case 0:
      return std::make_shared<core::ConstantPolicy>(3, 0);
    case 1:
      return std::make_shared<core::FunctionPolicy>(
          3,
          [](const core::FeatureVector& x) { return x[0] > 0.4 ? 0u : 1u; },
          "threshold");
    default:
      return std::make_shared<core::UniformRandomPolicy>(3);
  }
}

/// Chain environment with context feedback: the context counts how many of
/// the last steps chose action 1 (normalized). Rewards depend on both the
/// action and that action-history context, so stepwise IPS is biased for
/// any policy whose action frequencies differ from the logging policy's.
inline core::TrajectoryDataset simulate_chain(std::size_t episodes,
                                              std::size_t horizon, double p1,
                                              util::Rng& rng) {
  core::TrajectoryDataset data(2, {0.0, 1.0});
  for (std::size_t e = 0; e < episodes; ++e) {
    core::Trajectory t;
    double ones = 0;
    for (std::size_t s = 0; s < horizon; ++s) {
      const double load = s == 0 ? 0.0 : ones / static_cast<double>(s);
      const core::ActionId a = rng.bernoulli(p1) ? 1 : 0;
      // Action 1 is attractive in isolation but degrades the chain.
      const double r = a == 1 ? 0.9 - 0.5 * load : 0.4 + 0.1 * load;
      t.steps.push_back(
          {core::FeatureVector{load}, a, r, a == 1 ? p1 : 1.0 - p1});
      ones += a == 1 ? 1.0 : 0.0;
    }
    data.add(std::move(t));
  }
  return data;
}

/// Exact value of always-1 in the chain of horizon H:
/// load_t = t/t = 1 for t >= 1 (all previous were 1), load_0 = 0.
inline double truth_always1(std::size_t horizon) {
  double total = 0.9;  // step 0: load 0
  for (std::size_t s = 1; s < horizon; ++s) total += 0.9 - 0.5;
  return total / static_cast<double>(horizon);
}

/// Every LB router kind exercised by the invariant sweeps.
inline lb::RouterPtr make_router(const std::string& kind) {
  if (kind == "random") return std::make_unique<lb::RandomRouter>(2);
  if (kind == "least-loaded") {
    return std::make_unique<lb::LeastLoadedRouter>(2);
  }
  if (kind == "send-to-1") return std::make_unique<lb::SendToRouter>(2, 0);
  if (kind == "epoch") {
    return std::make_unique<lb::EpochWeightedRandomRouter>(2, 200, 0.5);
  }
  // CB router over a fixed linear policy.
  return std::make_unique<lb::CbRouter>(
      std::make_shared<core::FunctionPolicy>(
          2,
          [](const core::FeatureVector& x) {
            return x[0] <= x[1] + 5 ? 0u : 1u;
          },
          "offset-least-loaded"));
}

/// One input where argmax_a w_a·[1, x] meets NaN, signed zeros, infinities
/// or exact ties: three actions over a one-dimensional context, with the
/// action the scoring rule picks (ties go to the lowest id, a NaN score
/// never wins, and all-NaN picks 0).
struct ScoringCase {
  const char* name;
  std::vector<double> weights;  ///< 3 rows of {bias, slope}
  double x;
  core::ActionId expected;
};

inline std::vector<ScoringCase> scoring_special_cases() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  return {
      // Action 0 scores NaN, the others are finite.
      {"nan-bias-on-action-0", {nan, 0, 0, 1, 0, 2}, 1.0, 2},
      {"inf-times-zero-on-action-0", {0, inf, 1, 0, 0, 0}, 0.0, 1},
      // Other NaN placements.
      {"nan-in-the-middle", {0, 1, nan, 0, 0, 0.5}, 1.0, 0},
      {"nan-before-minus-inf", {nan, 0, -inf, 0, -inf, 0}, 1.0, 1},
      {"all-nan", {0, 1, 0, 2, 0, 3}, nan, 0},
      // Signed zeros tie with each other.
      {"minus-zero-ties-plus-zero", {-0.0, 0, 0.0, 0, -1, 0}, -0.0, 0},
      {"zeros-beat-negative", {-1, 0, -0.0, 0, 0.0, 1}, -0.0, 1},
      // Infinite weights and contexts.
      {"plus-inf-bias", {0, 1, inf, 0, 0, 2}, 3.0, 1},
      {"minus-inf-context", {0, 1, 0.5, 0, 1, -1}, -inf, 2},
      {"plus-inf-context", {0, 1, 0.5, 0, 1, -1}, inf, 0},
      {"all-minus-inf", {-inf, 0, -inf, 0, -inf, 0}, 1.0, 0},
      {"minus-inf-then-finite", {-inf, 0, -5, 0, -7, 0}, 1.0, 1},
      // Exact ties.
      {"two-way-tie", {0, 1, 0.5, 0, 0.5, 0}, 0.25, 1},
      {"three-way-tie", {0, 1, 0.5, 0, 1, -1}, 0.5, 0},
  };
}

}  // namespace harvest::testing
