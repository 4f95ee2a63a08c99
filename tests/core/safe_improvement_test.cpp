#include "core/safe_improvement.h"

#include <gtest/gtest.h>

#include "core/estimators/ips.h"
#include "core/policies/basic.h"

namespace harvest::core {
namespace {

/// Environment: action 1 is clearly better (0.8 vs 0.3). Uniform logging.
ExplorationDataset make_data(std::size_t n, util::Rng& rng) {
  ExplorationDataset data(2, {0.0, 1.0});
  for (std::size_t i = 0; i < n; ++i) {
    const ActionId a = rng.bernoulli(0.5) ? 1 : 0;
    const double r = (a == 1 ? 0.8 : 0.3) + rng.normal(0, 0.05);
    data.add({FeatureVector{rng.uniform()}, a,
              std::clamp(r, 0.0, 1.0), 0.5});
  }
  return data;
}

TEST(SafeImprovementTest, ClearWinnerIsDeployable) {
  util::Rng rng(1);
  const ExplorationDataset data = make_data(5000, rng);
  const IpsEstimator ips;
  const ConstantPolicy good(2, 1);
  // Baseline: the logged (uniform) policy's realized value ~0.55.
  const SafetyVerdict verdict = safe_improvement(data, good, ips, 0.55);
  EXPECT_TRUE(verdict.deployable);
  EXPECT_GT(verdict.margin, 0.1);
  EXPECT_NEAR(verdict.estimate.value, 0.8, 0.05);
}

TEST(SafeImprovementTest, WorsePolicyIsRejected) {
  util::Rng rng(2);
  const ExplorationDataset data = make_data(5000, rng);
  const IpsEstimator ips;
  const ConstantPolicy bad(2, 0);
  const SafetyVerdict verdict = safe_improvement(data, bad, ips, 0.55);
  EXPECT_FALSE(verdict.deployable);
  EXPECT_LT(verdict.margin, 0.0);
}

TEST(SafeImprovementTest, EquivalentPolicyRejectedOnSmallSamples) {
  // A policy matching the baseline cannot clear the gate: its lower bound
  // sits below its (equal) point value — the gate is conservative by
  // construction.
  util::Rng rng(3);
  const ExplorationDataset data = make_data(300, rng);
  const IpsEstimator ips;
  const UniformRandomPolicy same(2);
  const SafetyVerdict verdict = safe_improvement(data, same, ips, 0.55);
  EXPECT_FALSE(verdict.deployable);
}

TEST(SafeImprovementTest, FiniteSampleGateIsStricter) {
  util::Rng rng(4);
  const ExplorationDataset data = make_data(800, rng);
  const IpsEstimator ips;
  const ConstantPolicy good(2, 1);
  SafetyConfig normal_cfg;
  SafetyConfig bernstein_cfg;
  bernstein_cfg.finite_sample = true;
  const SafetyVerdict loose = safe_improvement(data, good, ips, 0.55,
                                               normal_cfg);
  const SafetyVerdict strict = safe_improvement(data, good, ips, 0.55,
                                                bernstein_cfg);
  EXPECT_LT(strict.margin, loose.margin);
}

TEST(SafeImprovementTest, RequiredImprovementRaisesTheBar) {
  util::Rng rng(5);
  const ExplorationDataset data = make_data(5000, rng);
  const IpsEstimator ips;
  const ConstantPolicy good(2, 1);
  SafetyConfig demanding;
  demanding.required_improvement = 0.5;  // unreachable
  EXPECT_FALSE(
      safe_improvement(data, good, ips, 0.55, demanding).deployable);
}

TEST(SafeImprovementTest, Validation) {
  util::Rng rng(7);
  const ExplorationDataset data = make_data(100, rng);
  const IpsEstimator ips;
  const ConstantPolicy policy(2, 0);
  SafetyConfig bad;
  bad.delta = 0.0;
  EXPECT_THROW(safe_improvement(data, policy, ips, 0.5, bad),
               std::invalid_argument);
  bad = SafetyConfig{};
  bad.required_improvement = -1;
  EXPECT_THROW(safe_improvement(data, policy, ips, 0.5, bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace harvest::core
