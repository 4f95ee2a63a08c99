#include "core/policies/basic.h"
#include "core/policies/greedy.h"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "core/linalg.h"
#include "testing/fixtures.h"

namespace harvest::core {
namespace {

double dist_sum(const std::vector<double>& d) {
  return std::accumulate(d.begin(), d.end(), 0.0);
}

TEST(ConstantPolicyTest, AlwaysSameAction) {
  const ConstantPolicy policy(4, 2);
  util::Rng rng(1);
  const FeatureVector x{1.0, 2.0};
  EXPECT_EQ(policy.act(x, rng), 2u);
  EXPECT_EQ(policy.choose(x), 2u);
  const auto d = policy.distribution(x);
  EXPECT_DOUBLE_EQ(d[2], 1.0);
  EXPECT_DOUBLE_EQ(dist_sum(d), 1.0);
  EXPECT_DOUBLE_EQ(policy.probability(x, 2), 1.0);
  EXPECT_DOUBLE_EQ(policy.probability(x, 0), 0.0);
  EXPECT_THROW(ConstantPolicy(4, 4), std::invalid_argument);
}

TEST(UniformRandomPolicyTest, UniformDistribution) {
  const UniformRandomPolicy policy(5);
  const FeatureVector x{0.0};
  const auto d = policy.distribution(x);
  for (double p : d) EXPECT_DOUBLE_EQ(p, 0.2);
  util::Rng rng(2);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 50000; ++i) ++counts[policy.act(x, rng)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(EpsilonGreedyPolicyTest, MixesBaseWithUniform) {
  auto base = std::make_shared<ConstantPolicy>(4, 1);
  const EpsilonGreedyPolicy policy(base, 0.2);
  const FeatureVector x{0.0};
  const auto d = policy.distribution(x);
  EXPECT_DOUBLE_EQ(dist_sum(d), 1.0);
  EXPECT_NEAR(d[1], 0.8 + 0.05, 1e-12);
  EXPECT_NEAR(d[0], 0.05, 1e-12);
  // Every action has the epsilon/|A| floor — the Eq. 1 guarantee.
  for (double p : d) EXPECT_GE(p, 0.05 - 1e-12);
}

TEST(EpsilonGreedyPolicyTest, EpsilonOneIsUniform) {
  auto base = std::make_shared<ConstantPolicy>(3, 0);
  const EpsilonGreedyPolicy policy(base, 1.0);
  const auto d = policy.distribution(FeatureVector{0.0});
  for (double p : d) EXPECT_NEAR(p, 1.0 / 3.0, 1e-12);
}

TEST(EpsilonGreedyPolicyTest, Validation) {
  EXPECT_THROW(EpsilonGreedyPolicy(nullptr, 0.1), std::invalid_argument);
  auto base = std::make_shared<ConstantPolicy>(2, 0);
  EXPECT_THROW(EpsilonGreedyPolicy(base, 1.5), std::invalid_argument);
}

TEST(FunctionPolicyTest, DelegatesToChooser) {
  const FunctionPolicy policy(
      2, [](const FeatureVector& x) { return x[0] > 0 ? 1u : 0u; }, "test");
  EXPECT_EQ(policy.choose(FeatureVector{1.0}), 1u);
  EXPECT_EQ(policy.choose(FeatureVector{-1.0}), 0u);
  EXPECT_EQ(policy.name(), "test");
}

TEST(FunctionPolicyTest, BadChooserActionThrows) {
  const FunctionPolicy policy(
      2, [](const FeatureVector&) { return 7u; }, "bad");
  EXPECT_THROW(policy.choose(FeatureVector{0.0}), std::logic_error);
}

TEST(ThresholdPolicyTest, SplitsOnFeature) {
  const ThresholdPolicy policy(3, 1, 0.5, 0, 2);
  EXPECT_EQ(policy.choose(FeatureVector{9.0, 0.4}), 0u);
  EXPECT_EQ(policy.choose(FeatureVector{9.0, 0.6}), 2u);
  EXPECT_EQ(policy.choose(FeatureVector{9.0, 0.5}), 2u);  // >= threshold
  EXPECT_THROW(policy.choose(FeatureVector{1.0}), std::out_of_range);
}

TEST(LinearPolicyTest, ArgmaxOfLinearScores) {
  // Two actions over 1 feature (+bias): action 0 scores x, action 1 scores
  // 1 - x. Crossover at 0.5.
  const LinearPolicy policy({{0.0, 1.0}, {1.0, -1.0}});
  EXPECT_EQ(policy.choose(FeatureVector{0.9}), 0u);
  EXPECT_EQ(policy.choose(FeatureVector{0.1}), 1u);
}

/// r̂(x, a) = w_a · [1, x] over three fixed bias-first rows.
class LinearScores final : public RewardModel {
 public:
  explicit LinearScores(std::vector<double> weights)
      : weights_(std::move(weights)) {}
  double predict(const FeatureVector& x, ActionId a) const override {
    const std::size_t stride = x.size() + 1;
    return dot_bias_first(
        std::span<const double>(weights_).subspan(a * stride, stride),
        x.values());
  }
  std::size_t num_actions() const override { return 3; }
  std::string name() const override { return "linear-scores"; }

 private:
  std::vector<double> weights_;
};

TEST(GreedyPolicyTest, TiesGoLowAndNanNeverWins) {
  for (const testing::ScoringCase& c : testing::scoring_special_cases()) {
    const GreedyPolicy policy(std::make_shared<LinearScores>(c.weights));
    EXPECT_EQ(policy.choose(FeatureVector{c.x}), c.expected) << c.name;
  }
}

TEST(LinearPolicyTest, Validation) {
  EXPECT_THROW(LinearPolicy({}), std::invalid_argument);
  EXPECT_THROW(LinearPolicy({{1.0, 2.0}, {1.0}}), std::invalid_argument);
}

TEST(PolicyTest, ActSamplesFromDistribution) {
  auto base = std::make_shared<ConstantPolicy>(2, 1);
  const EpsilonGreedyPolicy policy(base, 0.5);
  util::Rng rng(3);
  int ones = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    ones += policy.act(FeatureVector{0.0}, rng) == 1 ? 1 : 0;
  }
  EXPECT_NEAR(ones / static_cast<double>(n), 0.75, 0.01);
}

}  // namespace
}  // namespace harvest::core
