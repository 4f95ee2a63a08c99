#include "core/dataset.h"

#include <gtest/gtest.h>

#include "core/policies/basic.h"

namespace harvest::core {
namespace {

ExplorationPoint make_point(double feature, ActionId a, double r, double p) {
  return ExplorationPoint{FeatureVector{feature}, a, r, p};
}

TEST(ExplorationDatasetTest, AddValidation) {
  ExplorationDataset data(3, RewardRange{0, 1});
  data.add(make_point(1.0, 2, 0.5, 0.3));
  EXPECT_EQ(data.size(), 1u);
  EXPECT_THROW(data.add(make_point(1.0, 3, 0.5, 0.3)), std::invalid_argument);
  EXPECT_THROW(data.add(make_point(1.0, 0, 0.5, 0.0)), std::invalid_argument);
  EXPECT_THROW(data.add(make_point(1.0, 0, 0.5, 1.5)), std::invalid_argument);
}

TEST(ExplorationDatasetTest, MinPropensity) {
  ExplorationDataset data(2, RewardRange{0, 1});
  EXPECT_DOUBLE_EQ(data.min_propensity(), 0.0);
  data.add(make_point(0, 0, 0.5, 0.5));
  data.add(make_point(0, 1, 0.5, 0.125));
  EXPECT_DOUBLE_EQ(data.min_propensity(), 0.125);
}

TEST(ExplorationDatasetTest, SplitAndPrefix) {
  ExplorationDataset data(2, RewardRange{0, 1});
  for (int i = 0; i < 10; ++i) {
    data.add(make_point(i, 0, 0.1, 0.5));
  }
  const auto [train, test] = data.split(0.7);
  EXPECT_EQ(train.size(), 7u);
  EXPECT_EQ(test.size(), 3u);
  EXPECT_DOUBLE_EQ(train[0].context[0], 0.0);
  EXPECT_DOUBLE_EQ(test[0].context[0], 7.0);
  const auto prefix = data.prefix(4);
  EXPECT_EQ(prefix.size(), 4u);
  EXPECT_EQ(data.prefix(100).size(), 10u);
}

TEST(ExplorationDatasetTest, ShuffleKeepsMultiset) {
  ExplorationDataset data(2, RewardRange{0, 1});
  for (int i = 0; i < 20; ++i) data.add(make_point(i, 0, 0.1, 0.5));
  util::Rng rng(1);
  data.shuffle(rng);
  double sum = 0;
  for (const auto& pt : data.points()) sum += pt.context[0];
  EXPECT_DOUBLE_EQ(sum, 190.0);
}

TEST(FullFeedbackDatasetTest, TrueValueOfConstantPolicy) {
  FullFeedbackDataset data(2, RewardRange{0, 1});
  data.add(FullFeedbackPoint{FeatureVector{0.0}, {0.2, 0.8}});
  data.add(FullFeedbackPoint{FeatureVector{1.0}, {0.4, 0.6}});
  const ConstantPolicy pick0(2, 0);
  const ConstantPolicy pick1(2, 1);
  EXPECT_DOUBLE_EQ(data.true_value(pick0), 0.3);
  EXPECT_DOUBLE_EQ(data.true_value(pick1), 0.7);
  EXPECT_DOUBLE_EQ(data.best_value(), 0.7);
}

TEST(FullFeedbackDatasetTest, TrueValueOfRandomizedPolicy) {
  FullFeedbackDataset data(2, RewardRange{0, 1});
  data.add(FullFeedbackPoint{FeatureVector{0.0}, {0.0, 1.0}});
  const UniformRandomPolicy uniform(2);
  EXPECT_DOUBLE_EQ(data.true_value(uniform), 0.5);
}

TEST(FullFeedbackDatasetTest, SimulateExplorationRevealsChosenReward) {
  FullFeedbackDataset data(3, RewardRange{0, 1});
  for (int i = 0; i < 500; ++i) {
    data.add(FullFeedbackPoint{FeatureVector{static_cast<double>(i)},
                               {0.1, 0.5, 0.9}});
  }
  util::Rng rng(5);
  const UniformRandomPolicy logging(3);
  const ExplorationDataset exp = data.simulate_exploration(logging, rng);
  ASSERT_EQ(exp.size(), 500u);
  int counts[3] = {0, 0, 0};
  for (const auto& pt : exp.points()) {
    EXPECT_DOUBLE_EQ(pt.propensity, 1.0 / 3.0);
    // Revealed reward must equal the true reward of the logged action.
    const double expected = pt.action == 0 ? 0.1 : (pt.action == 1 ? 0.5 : 0.9);
    EXPECT_DOUBLE_EQ(pt.reward, expected);
    ++counts[pt.action];
  }
  for (int c : counts) EXPECT_GT(c, 100);
}

TEST(FullFeedbackDatasetTest, RejectsRaggedRewards) {
  FullFeedbackDataset data(3, RewardRange{0, 1});
  EXPECT_THROW(data.add(FullFeedbackPoint{FeatureVector{0.0}, {0.1, 0.2}}),
               std::invalid_argument);
}

TEST(FeatureVectorTest, BiasDotAndNorm) {
  const FeatureVector x{3.0, 4.0};
  const FeatureVector xb = x.with_bias();
  ASSERT_EQ(xb.size(), 3u);
  EXPECT_DOUBLE_EQ(xb[0], 1.0);
  const std::vector<double> w{10.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(xb.dot(w), 17.0);
}

}  // namespace
}  // namespace harvest::core
