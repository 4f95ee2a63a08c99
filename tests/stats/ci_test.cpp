#include "stats/ci.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"

namespace harvest::stats {
namespace {

TEST(CiTest, NormalCriticalKnownValues) {
  EXPECT_NEAR(normal_critical(0.05), 1.959964, 1e-4);
  EXPECT_NEAR(normal_critical(0.01), 2.575829, 1e-4);
  EXPECT_NEAR(normal_critical(0.32), 0.994458, 1e-4);
  EXPECT_THROW(normal_critical(0.0), std::invalid_argument);
  EXPECT_THROW(normal_critical(1.0), std::invalid_argument);
}

TEST(CiTest, BernsteinTighterThanHoeffdingForSmallVariance) {
  // With tiny empirical variance and moderate n, Bernstein wins over the
  // variance-blind Hoeffding half-width range * sqrt(ln(2/delta) / 2n).
  const double bern =
      empirical_bernstein_halfwidth(10000, 0.05, /*variance=*/0.001, 1.0);
  const double hoef = std::sqrt(std::log(2.0 / 0.05) / (2.0 * 10000));
  EXPECT_LT(bern, hoef);
}

TEST(CiTest, IntervalContainsCenter) {
  const Interval i = bernstein_interval(0.4, 100, 0.05, 0.24, 1.0);
  EXPECT_TRUE(i.contains(0.4));
  EXPECT_LT(i.lo, 0.4);
  EXPECT_GT(i.hi, 0.4);
}

// Coverage property: the empirical-Bernstein interval must contain the true
// mean in at least 1-delta of repeated experiments (it is conservative, so
// near 1).
class BernsteinCoverage : public ::testing::TestWithParam<double> {};

TEST_P(BernsteinCoverage, CoversTrueMean) {
  const double true_p = GetParam();
  util::Rng rng(99);
  const int experiments = 400;
  const int n = 200;
  int covered = 0;
  for (int e = 0; e < experiments; ++e) {
    double sum = 0;
    for (int i = 0; i < n; ++i) sum += rng.bernoulli(true_p) ? 1.0 : 0.0;
    const double mean = sum / n;
    const double variance = mean * (1.0 - mean) * n / (n - 1);
    const Interval ci = bernstein_interval(mean, n, 0.05, variance, 1.0);
    if (ci.contains(true_p)) ++covered;
  }
  EXPECT_GE(static_cast<double>(covered) / experiments, 0.95);
}

INSTANTIATE_TEST_SUITE_P(Proportions, BernsteinCoverage,
                         ::testing::Values(0.1, 0.3, 0.5, 0.8));

TEST(CiTest, RejectsBadArguments) {
  EXPECT_THROW(empirical_bernstein_halfwidth(0, 0.05, 0.1, 1),
               std::invalid_argument);
  EXPECT_THROW(empirical_bernstein_halfwidth(10, 0.0, 0.1, 1),
               std::invalid_argument);
  EXPECT_THROW(empirical_bernstein_halfwidth(10, 1.5, 0.1, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace harvest::stats
