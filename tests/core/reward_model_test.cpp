#include "core/reward_model.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "core/policies/basic.h"

namespace harvest::core {
namespace {

TEST(RidgeRewardModelTest, RecoversLinearFunction) {
  // reward(x, a) = 2x + (a == 1 ? 0.5 : 0).
  RidgeRewardModel model(2, 1, 1e-6);
  util::Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.uniform();
    model.observe(FeatureVector{x}, 0, 2 * x);
    model.observe(FeatureVector{x}, 1, 2 * x + 0.5);
  }
  model.fit();
  EXPECT_NEAR(model.predict(FeatureVector{0.3}, 0), 0.6, 0.01);
  EXPECT_NEAR(model.predict(FeatureVector{0.3}, 1), 1.1, 0.01);
  // Coefficients: bias ~0 / 0.5, slope ~2.
  EXPECT_NEAR(model.weights(0)[1], 2.0, 0.02);
  EXPECT_NEAR(model.weights(1)[0], 0.5, 0.02);
}

TEST(RidgeRewardModelTest, RegularizationShrinksTowardZero) {
  RidgeRewardModel tight(1, 1, 1e4);
  for (int i = 0; i < 50; ++i) {
    tight.observe(FeatureVector{1.0}, 0, 10.0);
  }
  tight.fit();
  // Huge lambda -> predictions pulled far below the sample mean.
  EXPECT_LT(tight.predict(FeatureVector{1.0}, 0), 1.0);
}

TEST(RidgeRewardModelTest, ImportanceWeightingCorrectsSkew) {
  // Logging policy shows action 0 mostly when x > 0.5; plain (unweighted)
  // regression on logged data is biased on the skewed region unless
  // importance-weighted. Construct the pathological dataset directly.
  util::Rng rng(2);
  ExplorationDataset data(2, RewardRange{0, 1});
  for (int i = 0; i < 4000; ++i) {
    const double x = rng.uniform();
    // Logging: action 0 w.p. 0.9 if x > 0.5 else 0.1.
    const double p0 = x > 0.5 ? 0.9 : 0.1;
    const ActionId a = rng.bernoulli(p0) ? 0 : 1;
    const double r = a == 0 ? x : 1.0 - x;  // true reward
    data.add({FeatureVector{x}, a, r, a == 0 ? p0 : 1 - p0});
  }
  const RidgeRewardModel weighted = fit_ridge(data, 1e-3, true);
  // True function for action 0 is r = x; check at x = 0.25 (rarely logged
  // with action 0).
  EXPECT_NEAR(weighted.predict(FeatureVector{0.25}, 0), 0.25, 0.05);
  EXPECT_NEAR(weighted.predict(FeatureVector{0.25}, 1), 0.75, 0.05);
}

TEST(RidgeRewardModelTest, PredictBeforeFitThrows) {
  RidgeRewardModel model(1, 1, 1.0);
  model.observe(FeatureVector{1.0}, 0, 1.0);
  EXPECT_THROW(model.predict(FeatureVector{1.0}, 0), std::logic_error);
  model.fit();
  EXPECT_NO_THROW(model.predict(FeatureVector{1.0}, 0));
}

TEST(RidgeRewardModelTest, Validation) {
  EXPECT_THROW(RidgeRewardModel(0, 1, 1.0), std::invalid_argument);
  EXPECT_THROW(RidgeRewardModel(1, 1, 0.0), std::invalid_argument);
  RidgeRewardModel model(2, 2, 1.0);
  EXPECT_THROW(model.observe(FeatureVector{1.0, 2.0}, 5, 0.0),
               std::out_of_range);
  EXPECT_THROW(model.observe(FeatureVector{1.0}, 0, 0.0),
               std::invalid_argument);
}

TEST(RidgeRewardModelTest, ObservationWeightTracked) {
  RidgeRewardModel model(2, 1, 1.0);
  model.observe(FeatureVector{0.0}, 0, 1.0, 2.5);
  model.observe(FeatureVector{0.0}, 0, 1.0, 1.5);
  EXPECT_DOUBLE_EQ(model.observation_weight(0), 4.0);
  EXPECT_DOUBLE_EQ(model.observation_weight(1), 0.0);
}

TEST(RidgeRewardModelTest, ClearedModelFitsExactlyLikeAFreshOne) {
  // A recycled accumulator must fit like a new one, bit for bit, and the
  // span overload must fold like the FeatureVector one. Dims 1, 4 and 5
  // cover observe()'s paired rows and its odd last row.
  for (const std::size_t dim : {1u, 4u, 5u}) {
    util::Rng rng(6);
    RidgeRewardModel fresh(2, dim, 0.5);
    RidgeRewardModel recycled(2, dim, 0.5);
    std::vector<double> x(dim);
    for (int i = 0; i < 50; ++i) {
      for (auto& v : x) v = rng.uniform(-1, 1);
      recycled.observe(std::span<const double>(x), i % 2, rng.uniform(), 2.0);
    }
    recycled.fit();
    recycled.clear_observations();
    EXPECT_EQ(recycled.observation_weight(0), 0.0);
    EXPECT_THROW(recycled.coefficients(), std::logic_error);
    for (int i = 0; i < 50; ++i) {
      for (auto& v : x) v = rng.uniform(-1, 1);
      const double r = rng.uniform();
      fresh.observe(FeatureVector(x), i % 2, r, 1.5);
      recycled.observe(std::span<const double>(x), i % 2, r, 1.5);
    }
    fresh.fit();
    recycled.fit();
    const std::span<const double> want = fresh.coefficients();
    const std::span<const double> got = recycled.coefficients();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                std::bit_cast<std::uint64_t>(want[i]))
          << "dim=" << dim << " coefficient " << i;
    }
  }
}

TEST(SgdRewardModelTest, ConvergesOnLinearTarget) {
  SgdRewardModel model(1, 1, 0.3);
  util::Rng rng(3);
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.uniform();
    model.update(FeatureVector{x}, 0, 3 * x + 1);
  }
  EXPECT_NEAR(model.predict(FeatureVector{0.5}, 0), 2.5, 0.1);
  EXPECT_NEAR(model.predict(FeatureVector{0.0}, 0), 1.0, 0.15);
}

TEST(SgdRewardModelTest, PerActionIndependence) {
  SgdRewardModel model(2, 1, 0.3);
  util::Rng rng(4);
  for (int i = 0; i < 5000; ++i) {
    model.update(FeatureVector{rng.uniform()}, 0, 1.0);
  }
  // Action 1 never updated: predicts 0.
  EXPECT_DOUBLE_EQ(model.predict(FeatureVector{0.5}, 1), 0.0);
  EXPECT_NEAR(model.predict(FeatureVector{0.5}, 0), 1.0, 0.1);
}

TEST(FitRidgeFullTest, MatchesPerActionSupervisedFit) {
  util::Rng rng(5);
  FullFeedbackDataset data(2, RewardRange{0, 1});
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform();
    data.add(FullFeedbackPoint{FeatureVector{x}, {x, 1 - x}});
  }
  const RidgeRewardModel model = fit_ridge_full(data, 1e-6);
  EXPECT_NEAR(model.predict(FeatureVector{0.8}, 0), 0.8, 0.02);
  EXPECT_NEAR(model.predict(FeatureVector{0.8}, 1), 0.2, 0.02);
}

}  // namespace
}  // namespace harvest::core
