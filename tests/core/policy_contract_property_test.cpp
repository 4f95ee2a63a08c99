// Property tests of the policy contract the offline estimators rely on:
//  - for every policy type, distribution_into(x, out), distribution(x) and
//    probability(x, a) agree bit-for-bit on random contexts, including
//    contexts where two actions score exactly the same;
//  - distribution_into rejects an `out` of the wrong size;
//  - dot_bias_first(w, x), the scoring kernel of the linear policies and
//    reward models, is bit-identical to dot(x.with_bias(), w), including on
//    −0.0, ±inf and NaN inputs;
//  - LinearScorer::argmax over bias-first rows picks the lowest id among
//    the largest non-NaN dot_bias_first scores (0 when all are NaN) on the
//    same inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cache/evictors.h"
#include "cache/slot_policy.h"
#include "core/linalg.h"
#include "core/policies/basic.h"
#include "core/policies/greedy.h"
#include "core/reward_model.h"
#include "testing/fixtures.h"

namespace harvest::core {
namespace {

constexpr std::size_t kActions = 5;
constexpr std::size_t kDim = 3;
constexpr std::size_t kSlots = 4;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Linear weights (bias first) where actions 1 and 3 share a row, so they
/// tie exactly on every context.
std::vector<std::vector<double>> tied_weights() {
  util::Rng rng(3);
  std::vector<std::vector<double>> w(kActions, std::vector<double>(kDim + 1));
  for (auto& row : w) {
    for (double& v : row) v = rng.uniform(-1.0, 1.0);
  }
  w[3] = w[1];
  return w;
}

/// A ridge model whose actions 0 and 2 saw identical observations, so their
/// coefficients, and hence their predictions, are exactly equal.
RewardModelPtr tied_ridge() {
  util::Rng rng(4);
  auto model = std::make_shared<RidgeRewardModel>(kActions, kDim, 1.0);
  for (int i = 0; i < 200; ++i) {
    const FeatureVector x{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                          rng.uniform(-1.0, 1.0)};
    const double r = rng.uniform();
    const auto a = static_cast<ActionId>(rng.uniform_index(kActions));
    model->observe(x, a == 2 ? 0 : a, r);
    if (a == 0 || a == 2) model->observe(x, 2, r);
  }
  model->fit();
  return model;
}

PolicyPtr make_policy(const std::string& kind) {
  const auto greedy = std::make_shared<GreedyPolicy>(tied_ridge());
  const auto linear = std::make_shared<LinearPolicy>(tied_weights());
  if (kind == "constant") return std::make_shared<ConstantPolicy>(kActions, 2);
  if (kind == "uniform") return std::make_shared<UniformRandomPolicy>(kActions);
  if (kind == "eps_greedy_greedy") {
    return std::make_shared<EpsilonGreedyPolicy>(greedy, 0.15);
  }
  if (kind == "eps_greedy_linear") {
    return std::make_shared<EpsilonGreedyPolicy>(linear, 0.3);
  }
  if (kind == "function") {
    return std::make_shared<FunctionPolicy>(
        kActions,
        [](const FeatureVector& x) {
          return static_cast<ActionId>(x[0] > 0 ? 1 : 3);
        },
        "sign");
  }
  if (kind == "threshold") {
    return std::make_shared<ThresholdPolicy>(kActions, 1, 0.5, 0, 3);
  }
  if (kind == "linear") return linear;
  if (kind == "greedy") return greedy;
  return std::make_shared<cache::EvictorSlotPolicy>(
      std::make_shared<cache::LruEvictor>(), kSlots);
}

/// Random contexts plus the ones that force exact ties: all zeros (every
/// score is its bias), a −0.0 entry, and a feature sitting exactly on the
/// threshold policy's cut.
std::vector<FeatureVector> contexts(std::size_t dim, util::Rng& rng) {
  std::vector<FeatureVector> out;
  for (int i = 0; i < 200; ++i) {
    std::vector<double> x(dim);
    for (double& v : x) v = rng.uniform(-1.0, 1.0);
    out.emplace_back(std::move(x));
  }
  out.emplace_back(std::vector<double>(dim, 0.0));
  std::vector<double> signed_zero(dim, 0.25);
  signed_zero[0] = -0.0;
  out.emplace_back(signed_zero);
  out.emplace_back(std::vector<double>(dim, 0.5));
  return out;
}

/// Eviction contexts: per slot [size_kb, idle_s, access_rate, age_s], with
/// slots 0 and 2 identical (an exact tie for the LRU argmax) on half the
/// draws.
std::vector<FeatureVector> slot_contexts(util::Rng& rng) {
  std::vector<FeatureVector> out;
  for (int i = 0; i < 200; ++i) {
    std::vector<double> x;
    for (std::size_t s = 0; s < kSlots; ++s) {
      x.push_back(rng.uniform(1.0, 64.0));
      x.push_back(rng.uniform(0.0, 30.0));
      x.push_back(rng.uniform(0.0, 5.0));
      x.push_back(rng.uniform(30.0, 100.0));
    }
    if (i % 2 == 0) {
      for (std::size_t f = 0; f < 4; ++f) x[2 * 4 + f] = x[f];
    }
    out.emplace_back(std::move(x));
  }
  return out;
}

class PolicyContract : public ::testing::TestWithParam<std::string> {};

TEST_P(PolicyContract, DistributionIntoDistributionAndProbabilityAgree) {
  const PolicyPtr policy = make_policy(GetParam());
  const std::size_t k = policy->num_actions();
  util::Rng rng(5);
  const std::vector<FeatureVector> xs =
      GetParam() == "evictor_slot" ? slot_contexts(rng) : contexts(kDim, rng);
  std::vector<double> out(k);
  for (const FeatureVector& x : xs) {
    // Stale values from the previous row must not leak into the next one.
    std::fill(out.begin(), out.end(),
              std::numeric_limits<double>::quiet_NaN());
    policy->distribution_into(x, out);
    const std::vector<double> dist = policy->distribution(x);
    ASSERT_EQ(dist.size(), k);
    for (std::size_t a = 0; a < k; ++a) {
      const double p = policy->probability(x, static_cast<ActionId>(a));
      ASSERT_EQ(bits(out[a]), bits(dist[a])) << "action " << a;
      ASSERT_EQ(bits(p), bits(dist[a])) << "action " << a;
    }
  }
}

TEST_P(PolicyContract, WrongSizeBufferThrows) {
  const PolicyPtr policy = make_policy(GetParam());
  const std::size_t k = policy->num_actions();
  util::Rng rng(6);
  const FeatureVector x = GetParam() == "evictor_slot"
                              ? slot_contexts(rng).front()
                              : contexts(kDim, rng).front();
  std::vector<double> short_out(k - 1), long_out(k + 1);
  EXPECT_THROW(policy->distribution_into(x, short_out), std::invalid_argument);
  EXPECT_THROW(policy->distribution_into(x, long_out), std::invalid_argument);
  EXPECT_THROW(policy->distribution_into(x, {}), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyContract,
    ::testing::Values("constant", "uniform", "eps_greedy_greedy",
                      "eps_greedy_linear", "function", "threshold", "linear",
                      "greedy", "evictor_slot"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(DotBiasFirst, BitIdenticalToDotWithBias) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double specials[] = {0.0,  -0.0, inf,  -inf, nan,
                             1e308, -1e308, 5e-324, 1.0, -1.0};
  util::Rng rng(7);
  auto draw = [&] {
    // Half the entries special, half ordinary.
    return rng.bernoulli(0.5)
               ? specials[rng.uniform_index(std::size(specials))]
               : rng.uniform(-4.0, 4.0);
  };
  for (int trial = 0; trial < 20000; ++trial) {
    const std::size_t dim = rng.uniform_index(10);
    std::vector<double> x(dim), w(dim + 1);
    for (double& v : x) v = draw();
    for (double& v : w) v = draw();
    const FeatureVector fx(x);
    const double expected = dot(fx.with_bias().values(), w);
    ASSERT_EQ(bits(dot_bias_first(w, x)), bits(expected))
        << "trial " << trial << ", dim " << dim;
  }
}

TEST(DotBiasFirst, SignedZeroBiasFollowsTheZeroStart) {
  // The sum starts from +0.0, so a lone −0.0 bias scores +0.0, exactly as
  // dot([1], [−0.0]) does.
  const std::vector<double> w{-0.0};
  EXPECT_EQ(bits(dot_bias_first(w, {})), bits(0.0));
  EXPECT_EQ(bits(dot_bias_first(w, {})),
            bits(dot(FeatureVector{}.with_bias().values(), w)));
}

TEST(DotBiasFirst, RejectsMismatchedSizes) {
  const std::vector<double> x{1.0, 2.0};
  EXPECT_THROW(dot_bias_first(std::vector<double>{1.0, 2.0}, x),
               std::invalid_argument);
  EXPECT_THROW(dot_bias_first(std::vector<double>{1.0, 2.0, 3.0, 4.0}, x),
               std::invalid_argument);
  EXPECT_THROW(dot_bias_first({}, {}), std::invalid_argument);
  EXPECT_EQ(dot_bias_first(std::vector<double>{0.5, 2.0, -1.0}, x),
            0.5 + 2.0 * 1.0 + -1.0 * 2.0);
}

TEST(ArgmaxBiasFirst, LowestIdAmongTheLargestNonNanScores) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double specials[] = {0.0, -0.0, inf, -inf, nan, 1.0, -1.0, 0.5};
  util::Rng rng(8);
  auto draw = [&] {
    return rng.bernoulli(0.3)
               ? specials[rng.uniform_index(std::size(specials))]
               : rng.uniform(-4.0, 4.0);
  };
  for (int trial = 0; trial < 20000; ++trial) {
    const std::size_t k = 1 + rng.uniform_index(8);
    const std::size_t stride = 1 + rng.uniform_index(6);
    std::vector<double> w(k * stride), x(stride - 1);
    for (double& v : w) v = draw();
    for (double& v : x) v = draw();
    if (k > 1 && rng.bernoulli(0.3)) {  // an exact tie between two rows
      const std::size_t from = rng.uniform_index(k);
      const std::size_t to = rng.uniform_index(k);
      std::copy_n(w.begin() + from * stride, stride, w.begin() + to * stride);
    }
    std::size_t expected = 0;
    double best = 0;
    bool seen = false;
    for (std::size_t a = 0; a < k; ++a) {
      const double score = dot_bias_first(
          std::span<const double>(w).subspan(a * stride, stride), x);
      if (!std::isnan(score) && (!seen || score > best)) {
        expected = a;
        best = score;
        seen = true;
      }
    }
    ASSERT_EQ(LinearScorer(w, k).argmax(x), expected) << "trial " << trial;
  }
  for (const testing::ScoringCase& c : testing::scoring_special_cases()) {
    EXPECT_EQ(LinearScorer(c.weights, 3).argmax(std::span<const double>(&c.x, 1)),
              c.expected)
        << c.name;
  }
}

TEST(ArgmaxBiasFirst, RejectsMismatchedGeometry) {
  const std::vector<double> x{1.0, 2.0};
  EXPECT_THROW(LinearScorer(std::vector<double>(5), 2), std::invalid_argument);
  EXPECT_THROW(LinearScorer(std::vector<double>(7), 2), std::invalid_argument);
  EXPECT_THROW(LinearScorer({}, 0), std::invalid_argument);
  EXPECT_THROW(LinearScorer(std::vector<double>(4), 0), std::invalid_argument);
  EXPECT_THROW(LinearScorer(std::vector<double>(4), 2).argmax(x),
               std::invalid_argument);  // rows of 2 mean dim 1, not 2
  EXPECT_THROW(LinearScorer().argmax({}), std::invalid_argument);
  // 0.5 + 2·1 − 1·2 = 0.5 against 0 + 0·1 + 1·2 = 2.
  EXPECT_EQ(LinearScorer(std::vector<double>{0.5, 2.0, -1.0, 0.0, 0.0, 1.0}, 2)
                .argmax(x),
            1u);
}

}  // namespace
}  // namespace harvest::core
