// Property tests of the estimator zoo's algebraic identities: the zoo's
// members are not independent formulas but points on a bias/variance dial,
// and the identities pin the dial's endpoints *bit-exactly* —
//   SWITCH(tau = 0)      == IPS   (every record on the importance side)
//   SWITCH(tau > 1)      == DM    (every record on the model side)
//   DR(zero model)       == IPS   (the correction term IS the IPS term)
//   SNIPS(rewards + c)   == SNIPS(rewards) + c  (shift equivariance)
// plus the repo-wide invariant that every estimate is bit-identical for any
// thread count.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/estimators/direct.h"
#include "core/estimators/ips.h"
#include "core/estimators/sequence.h"
#include "core/estimators/switch.h"
#include "core/policies/basic.h"
#include "core/reward_model.h"
#include "core/trajectory.h"
#include "par/parallel.h"
#include "par/thread_pool.h"
#include "testing/fixtures.h"

namespace harvest::core {
namespace {

using harvest::testing::make_candidate_policy;
using harvest::testing::make_environment;
using harvest::testing::make_logging_policy;

using Combo = std::tuple<int, int>;  // (logging kind, candidate kind)

/// A reward model that predicts 0 everywhere: collapses DR to IPS.
struct ZeroModel final : RewardModel {
  double predict(const FeatureVector&, ActionId) const override { return 0; }
  std::size_t num_actions() const override { return 3; }
  std::string name() const override { return "zero"; }
};

/// Bit-exact comparison of two estimates. `check_bernstein` is off for
/// identities where only the Bernstein *range bound* differs by
/// construction (the point estimate, stderr, and normal CI still must
/// match exactly); `check_clipped` is off where the clipped/switched
/// fraction deliberately reports a different event.
void expect_identical(const Estimate& a, const Estimate& b,
                      bool check_bernstein = true, bool check_clipped = true) {
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.matched, b.matched);
  EXPECT_EQ(a.stderr_value, b.stderr_value);
  EXPECT_EQ(a.normal_ci.lo, b.normal_ci.lo);
  EXPECT_EQ(a.normal_ci.hi, b.normal_ci.hi);
  if (check_bernstein) {
    EXPECT_EQ(a.bernstein_ci.lo, b.bernstein_ci.lo);
    EXPECT_EQ(a.bernstein_ci.hi, b.bernstein_ci.hi);
  }
  EXPECT_EQ(a.ess, b.ess);
  EXPECT_EQ(a.max_weight, b.max_weight);
  if (check_clipped) {
    EXPECT_EQ(a.clipped_fraction, b.clipped_fraction);
  }
}

class ZooIdentities : public ::testing::TestWithParam<Combo> {};

TEST_P(ZooIdentities, SwitchTauZeroIsExactlyIps) {
  const auto [log_kind, cand_kind] = GetParam();
  util::Rng rng(5000 + log_kind * 10 + cand_kind);
  const FullFeedbackDataset env = make_environment(600, rng);
  const ExplorationDataset exp =
      env.simulate_exploration(*make_logging_policy(log_kind), rng);
  const PolicyPtr candidate = make_candidate_policy(cand_kind);

  const auto model = std::make_shared<ZeroModel>();
  const IpsEstimator ips;
  const SwitchEstimator sw(model, 0.0);
  // tau = 0: every propensity is >= 0, so every record takes the IPS
  // branch and the model is never consulted — all fields must match,
  // switched-fraction included (both are 0).
  expect_identical(sw.evaluate(exp, *candidate),
                   ips.evaluate(exp, *candidate));
}

TEST_P(ZooIdentities, SwitchTauAboveOneIsExactlyDirectMethod) {
  const auto [log_kind, cand_kind] = GetParam();
  util::Rng rng(6000 + log_kind * 10 + cand_kind);
  const FullFeedbackDataset env = make_environment(600, rng);
  ExplorationDataset exp =
      env.simulate_exploration(*make_logging_policy(log_kind), rng);
  const PolicyPtr candidate = make_candidate_policy(cand_kind);

  // A non-trivial model, so the identity is not about predicting zero.
  const auto model =
      std::make_shared<RidgeRewardModel>(fit_ridge(exp, 1.0, true));
  const DirectMethodEstimator dm(model);
  const SwitchEstimator sw(model, 1.5);
  // tau > 1: no propensity can reach it, so every record switches to the
  // model side. clipped_fraction is excluded: SWITCH truthfully reports
  // that 100% of records switched, while DM has nothing to report.
  const Estimate sw_est = sw.evaluate(exp, *candidate);
  expect_identical(sw_est, dm.evaluate(exp, *candidate),
                   /*check_bernstein=*/true, /*check_clipped=*/false);
  EXPECT_EQ(sw_est.clipped_fraction, 1.0);
}

TEST_P(ZooIdentities, DoublyRobustWithZeroModelIsIps) {
  const auto [log_kind, cand_kind] = GetParam();
  util::Rng rng(7000 + log_kind * 10 + cand_kind);
  const FullFeedbackDataset env = make_environment(600, rng);
  const ExplorationDataset exp =
      env.simulate_exploration(*make_logging_policy(log_kind), rng);
  const PolicyPtr candidate = make_candidate_policy(cand_kind);

  const IpsEstimator ips;
  const DoublyRobustEstimator dr(std::make_shared<ZeroModel>());
  // With rhat == 0 the DM term vanishes and the correction term w*(r - 0)
  // is exactly the IPS contribution, so the point estimate, stderr, normal
  // CI, and weight diagnostics coincide bit for bit. Only the Bernstein
  // *range bound* differs (DR bounds contributions by 2*max|c|, IPS by
  // width/min_p), so that CI is excluded.
  expect_identical(dr.evaluate(exp, *candidate), ips.evaluate(exp, *candidate),
                   /*check_bernstein=*/false);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, ZooIdentities,
    ::testing::Combine(::testing::Values(0, 1, 2), ::testing::Values(0, 1, 2)));

TEST(SnipsShiftEquivariance, UniformRewardShiftShiftsEstimateExactly) {
  // Two environments with identical contexts whose rewards differ by a
  // constant c. The same rng seed draws the same logged actions, so the
  // importance weights are identical and SNIPS — a weighted *average* —
  // must move by exactly c. (Plain IPS does not have this property unless
  // the weights average to 1; that is the point of self-normalizing.)
  for (const double c : {-0.4, 0.25, 3.0}) {
    util::Rng ctx_rng(8101);
    FullFeedbackDataset base(3, RewardRange{0, 1});
    FullFeedbackDataset shifted(3, RewardRange{c, 1 + c});
    for (int i = 0; i < 700; ++i) {
      const double x = ctx_rng.uniform();
      const std::vector<double> r{0.5 * x + 0.2, 0.9 - 0.6 * x, 0.5};
      base.add(FullFeedbackPoint{FeatureVector{x}, r});
      shifted.add(
          FullFeedbackPoint{FeatureVector{x}, {r[0] + c, r[1] + c, r[2] + c}});
    }
    const PolicyPtr logging = make_logging_policy(1);
    const PolicyPtr candidate = make_candidate_policy(1);
    util::Rng rng_a(8202), rng_b(8202);
    const ExplorationDataset exp_base =
        base.simulate_exploration(*logging, rng_a);
    const ExplorationDataset exp_shifted =
        shifted.simulate_exploration(*logging, rng_b);

    const SnipsEstimator snips;
    const Estimate e_base = snips.evaluate(exp_base, *candidate);
    const Estimate e_shifted = snips.evaluate(exp_shifted, *candidate);
    EXPECT_NEAR(e_shifted.value, e_base.value + c, 1e-12)
        << "shift c=" << c;
    // The weights are untouched by the shift, so the diagnostics are
    // bit-identical.
    EXPECT_EQ(e_base.ess, e_shifted.ess);
    EXPECT_EQ(e_base.max_weight, e_shifted.max_weight);
    EXPECT_EQ(e_base.matched, e_shifted.matched);
  }
}

TEST(ZooThreadInvariance, EveryEstimatorBitIdenticalAcrossThreadCounts) {
  // A heterogeneous-propensity log (eps-greedy logging), so SWITCH at
  // tau = 0.2 genuinely splits records across its two sides and every
  // estimator exercises its parallel reduction with non-trivial tallies.
  util::Rng rng(9100);
  const FullFeedbackDataset env = make_environment(4000, rng);
  const ExplorationDataset exp =
      env.simulate_exploration(*make_logging_policy(1), rng);
  const PolicyPtr candidate = make_candidate_policy(1);
  const auto model =
      std::make_shared<RidgeRewardModel>(fit_ridge(exp, 1.0, true));

  std::vector<EstimatorPtr> zoo;
  zoo.push_back(std::make_shared<IpsEstimator>());
  zoo.push_back(std::make_shared<ClippedIpsEstimator>(2.0));
  zoo.push_back(std::make_shared<SnipsEstimator>());
  zoo.push_back(std::make_shared<DirectMethodEstimator>(model));
  zoo.push_back(std::make_shared<DoublyRobustEstimator>(model));
  zoo.push_back(std::make_shared<SwitchEstimator>(model, 0.2));

  par::set_default_threads(1);
  std::vector<Estimate> baseline;
  for (const auto& est : zoo) {
    baseline.push_back(est->evaluate(exp, *candidate));
  }
  // Sanity: SWITCH actually switched some (but not all) records.
  EXPECT_GT(baseline.back().clipped_fraction, 0.0);
  EXPECT_LT(baseline.back().clipped_fraction, 1.0);

  for (const std::size_t threads : {2u, 8u}) {
    par::set_default_threads(threads);
    for (std::size_t e = 0; e < zoo.size(); ++e) {
      SCOPED_TRACE(zoo[e]->name() + " at threads=" + std::to_string(threads));
      expect_identical(baseline[e], zoo[e]->evaluate(exp, *candidate));
    }
  }
  par::set_default_threads(1);
}

TEST(ZooThreadInvariance, SequenceEstimatorsBitIdenticalAcrossThreadCounts) {
  // 1,000 trajectories make 15 shards of par::ShardPlan::fixed(m, 64), so
  // the per-trajectory fill and sequence DR's per-step sums both merge
  // across shards. p1 = 0.3 gives heterogeneous propensities.
  util::Rng rng(9200);
  const TrajectoryDataset data =
      harvest::testing::simulate_chain(1000, 6, 0.3, rng);
  ASSERT_GE(par::ShardPlan::fixed(data.size(), 64).num_shards, 4u);
  // Always-0 matches some whole trajectories; the threshold policy mixes
  // actions along a trajectory.
  const std::vector<PolicyPtr> candidates{
      std::make_shared<ConstantPolicy>(2, 0),
      std::make_shared<FunctionPolicy>(
          2, [](const FeatureVector& x) { return x[0] > 0.3 ? 0u : 1u; },
          "threshold"),
      std::make_shared<UniformRandomPolicy>(2)};
  ExplorationDataset flat(2, data.reward_range());
  for (const auto& trajectory : data.trajectories()) {
    for (const auto& step : trajectory.steps) flat.add(step);
  }
  const auto model =
      std::make_shared<RidgeRewardModel>(fit_ridge(flat, 1.0, true));

  std::vector<std::shared_ptr<const SequenceEstimator>> zoo;
  for (const bool weighted : {false, true}) {
    zoo.push_back(std::make_shared<TrajectoryIpsEstimator>(weighted));
    zoo.push_back(std::make_shared<PerDecisionIpsEstimator>(weighted));
    zoo.push_back(
        std::make_shared<SequenceDoublyRobustEstimator>(model, weighted));
  }
  zoo.push_back(std::make_shared<StepwiseIpsAdapter>());

  par::set_default_threads(1);
  std::vector<Estimate> baseline;
  for (const auto& est : zoo) {
    for (const PolicyPtr& candidate : candidates) {
      baseline.push_back(est->evaluate(data, *candidate));
    }
  }
  for (const std::size_t threads : {2u, 8u}) {
    par::set_default_threads(threads);
    std::size_t k = 0;
    for (const auto& est : zoo) {
      for (const PolicyPtr& candidate : candidates) {
        SCOPED_TRACE(est->name() + " over " + candidate->name() +
                     " at threads=" + std::to_string(threads));
        expect_identical(baseline[k++], est->evaluate(data, *candidate));
      }
    }
  }
  par::set_default_threads(1);
}

}  // namespace
}  // namespace harvest::core
