// Pins the exact outputs of every path that scores contexts with linear
// weights: a logging plan's JSON, a retrained snapshot's bytes, the
// (action, propensity) streams of an eps-greedy and of a planned snapshot,
// the LinearPolicy::choose stream, and every field of every off-policy
// estimate over a fixed harvest. Each output is reduced to its length and
// CRC32C, so a change to scoring order, tie-break, stratum assignment or an
// estimator's floating-point order shows up here as a changed constant.
//
// The weights and contexts are quarter and half multiples for half the
// rows, so exact ties between actions occur; the other rows are continuous.
// They also hold -0.0 and +0.0 entries. Every input is finite: the NaN and
// infinity cases are covered by the agreement tests next to each site.
//
// Apart from the plan, every value comes from util::Rng through integer,
// bit and correctly rounded IEEE-754 operations (the ridge fit's Cholesky
// uses sqrt), so those pins hold on any IEEE-754 host. The planner's
// adversary step also calls std::exp, so the plan pin assumes the libm the
// constants were recorded with (glibc, x86-64), and so do the estimate
// pins: every confidence interval calls std::log, and trajectory weights
// std::log and std::exp.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/estimators/direct.h"
#include "core/estimators/ips.h"
#include "core/estimators/sequence.h"
#include "core/estimators/switch.h"
#include "core/policies/basic.h"
#include "core/policies/greedy.h"
#include "core/reward_model.h"
#include "core/trajectory.h"
#include "design/planner.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "serve/trainer.h"
#include "store/crc32c.h"
#include "util/rng.h"

namespace harvest {
namespace {

constexpr std::size_t kActions = 5;
constexpr std::size_t kDim = 4;
constexpr std::size_t kContexts = 10000;

struct Pin {
  std::size_t bytes;
  std::uint32_t crc;
};

void expect_pinned(const std::string& bytes, Pin pin, const char* what) {
  EXPECT_EQ(bytes.size(), pin.bytes) << what;
  EXPECT_EQ(store::crc32c(bytes), pin.crc) << what;
}

void append_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void append_f64(std::string& out, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>(bits >> (8 * i)));
  }
}

/// Even rows draw quarter multiples in [-1, 1], so rows can tie exactly;
/// odd rows are continuous. Row 2's bias is -0.0.
std::vector<double> weights() {
  util::Rng rng(1701);
  std::vector<double> w(kActions * (kDim + 1));
  for (std::size_t a = 0; a < kActions; ++a) {
    for (std::size_t j = 0; j <= kDim; ++j) {
      w[a * (kDim + 1) + j] =
          a % 2 == 0 ? static_cast<double>(rng.uniform_index(9)) * 0.25 - 1.0
                     : rng.uniform(-1.0, 1.0);
    }
  }
  w[2 * (kDim + 1)] = -0.0;
  return w;
}

std::vector<std::vector<double>> weight_rows() {
  const std::vector<double> flat = weights();
  std::vector<std::vector<double>> rows;
  for (std::size_t a = 0; a < kActions; ++a) {
    rows.emplace_back(flat.begin() + a * (kDim + 1),
                      flat.begin() + (a + 1) * (kDim + 1));
  }
  return rows;
}

/// kContexts rows of kDim values, row-major. Even rows are half multiples
/// in [-2, 2]; odd rows are continuous; every seventh row zeroes one entry
/// with alternating sign.
std::vector<double> contexts() {
  util::Rng rng(1702);
  std::vector<double> x(kContexts * kDim);
  for (std::size_t i = 0; i < kContexts; ++i) {
    for (std::size_t j = 0; j < kDim; ++j) {
      x[i * kDim + j] =
          i % 2 == 0 ? static_cast<double>(rng.uniform_index(9)) * 0.5 - 2.0
                     : rng.uniform(-2.0, 2.0);
    }
    if (i % 7 == 0) x[i * kDim + i % kDim] = i % 14 == 0 ? -0.0 : 0.0;
  }
  return x;
}

/// Row s of the plan puts (1 + (s + a) % K) / 15 on action a.
std::vector<double> plan_rows() {
  std::vector<double> plan(kActions * kActions);
  for (std::size_t s = 0; s < kActions; ++s) {
    for (std::size_t a = 0; a < kActions; ++a) {
      plan[s * kActions + a] =
          static_cast<double>(1 + (s + a) % kActions) / 15.0;
    }
  }
  return plan;
}

/// Uniformly logged harvest over contexts(): reward is a fixed linear
/// function of the context per action plus uniform noise.
core::ExplorationDataset uniform_harvest(std::size_t n) {
  const std::vector<double> x = contexts();
  util::Rng rng(1703);
  core::ExplorationDataset data(kActions, {-4.0, 4.0});
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const double> ctx(x.data() + i * kDim, kDim);
    const auto a = static_cast<core::ActionId>(rng.uniform_index(kActions));
    const double r = 0.1 * static_cast<double>(a) +
                     0.25 * ctx[a % kDim] - 0.125 * ctx[(a + 1) % kDim] +
                     rng.uniform(-0.5, 0.5);
    data.add({core::FeatureVector(std::vector<double>(ctx.begin(), ctx.end())),
              a, r, 1.0 / static_cast<double>(kActions)});
  }
  return data;
}

/// The same contexts and reward function, logged eps-greedy (eps = 0.3)
/// around the pinned linear policy: propensities are 0.76 on its choice and
/// 0.06 elsewhere, so importance weights reach 16.7.
core::ExplorationDataset eps_greedy_harvest(std::size_t n) {
  const std::vector<double> x = contexts();
  const core::EpsilonGreedyPolicy logging(
      std::make_shared<core::LinearPolicy>(weight_rows()), 0.3);
  util::Rng rng(1705);
  core::ExplorationDataset data(kActions, {-4.0, 4.0});
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const double> ctx(x.data() + i * kDim, kDim);
    const core::FeatureVector context(
        std::vector<double>(ctx.begin(), ctx.end()));
    const core::ActionId a = logging.act(context, rng);
    const double r = 0.1 * static_cast<double>(a) +
                     0.25 * ctx[a % kDim] - 0.125 * ctx[(a + 1) % kDim] +
                     rng.uniform(-0.5, 0.5);
    data.add({context, a, r, logging.probability(context, a)});
  }
  return data;
}

/// Every field of an estimate, bit for bit.
void append_estimate(std::string& out, const core::Estimate& e) {
  append_f64(out, e.value);
  append_u32(out, static_cast<std::uint32_t>(e.n));
  append_u32(out, static_cast<std::uint32_t>(e.matched));
  for (const double v :
       {e.stderr_value, e.normal_ci.lo, e.normal_ci.hi, e.bernstein_ci.lo,
        e.bernstein_ci.hi, e.ess, e.max_weight, e.clipped_fraction}) {
    append_f64(out, v);
  }
}

std::string decision_stream(const serve::PolicySnapshot& snapshot) {
  const std::vector<double> x = contexts();
  util::Rng rng(1704);
  std::string out;
  for (std::size_t i = 0; i < kContexts; ++i) {
    const std::span<const double> context(x.data() + i * kDim, kDim);
    const serve::Decision d = snapshot.decide(context, rng);
    append_u32(out, d.action);
    append_f64(out, d.propensity);
  }
  return out;
}

TEST(ScoringPinsTest, PlanJsonBytesArePinned) {
  const core::ExplorationDataset data = uniform_harvest(3000);
  auto model = std::make_shared<core::RidgeRewardModel>(
      core::fit_ridge(data, 1.0, true));
  const std::vector<core::PolicyPtr> candidates{
      std::make_shared<core::GreedyPolicy>(model, "trained-greedy"),
      std::make_shared<core::LinearPolicy>(weight_rows(), "pinned-linear"),
      std::make_shared<core::ConstantPolicy>(kActions, 3)};
  design::PlannerConfig config;
  config.propensity_floor = 0.02;
  config.baseline_epsilon = 0.2;
  const design::PlannerReport report = design::plan_logging(
      data, candidates, *model, weights(), kDim, config);
  expect_pinned(report.plan.to_json(), {1378, 2813585338u}, "plan json");
}

TEST(ScoringPinsTest, TrainedSnapshotBytesArePinned) {
  serve::DecisionService service(
      {.num_actions = kActions, .dim = kDim, .log_capacity = 16, .seed = 1},
      serve::PolicySnapshot::uniform(1, kActions, kDim));
  const serve::SnapshotTrainer trainer(service, {.epsilon = 0.1});
  const auto snapshot = trainer.train_on(uniform_harvest(3000), 7);
  expect_pinned(snapshot->serialize(), {228, 754264588u}, "trained snapshot");
  service.reclaim_all();
}

TEST(ScoringPinsTest, EpsGreedyDecisionStreamIsPinned) {
  const serve::PolicySnapshot snapshot(1, kActions, kDim, weights(), 0.3);
  expect_pinned(decision_stream(snapshot), {120000, 3200216429u},
                "eps-greedy stream");
}

TEST(ScoringPinsTest, PlannedDecisionStreamIsPinned) {
  const serve::PolicySnapshot snapshot(1, kActions, kDim, weights(),
                                       plan_rows());
  expect_pinned(decision_stream(snapshot), {120000, 1208970968u},
                "planned stream");
}

TEST(ScoringPinsTest, LinearPolicyChoiceStreamIsPinned) {
  const core::LinearPolicy policy(weight_rows());
  const std::vector<double> x = contexts();
  std::string out;
  for (std::size_t i = 0; i < kContexts; ++i) {
    append_u32(out, policy.choose(core::FeatureVector(std::vector<double>(
                        x.begin() + i * kDim, x.begin() + (i + 1) * kDim))));
  }
  expect_pinned(out, {40000, 1186609813u}, "LinearPolicy stream");
}

TEST(ScoringPinsTest, EstimatesArePinned) {
  const core::ExplorationDataset data = eps_greedy_harvest(kContexts);
  auto model = std::make_shared<core::RidgeRewardModel>(
      core::fit_ridge(data, 1.0, true));
  auto greedy = std::make_shared<core::GreedyPolicy>(model, "trained-greedy");
  const std::vector<core::PolicyPtr> candidates{
      greedy, std::make_shared<core::LinearPolicy>(weight_rows()),
      std::make_shared<core::ConstantPolicy>(kActions, 3),
      std::make_shared<core::EpsilonGreedyPolicy>(greedy, 0.1)};
  // A weight cap of 5 clips every matched exploration draw (weight 16.7);
  // tau = 0.1 sends those same draws (p = 0.06) to the model.
  const std::pair<std::shared_ptr<const core::OffPolicyEstimator>, Pin>
      points[] = {
          {std::make_shared<core::IpsEstimator>(), {320, 2150738195u}},
          {std::make_shared<core::ClippedIpsEstimator>(5.0), {320, 2065336764u}},
          {std::make_shared<core::SnipsEstimator>(), {320, 2017023179u}},
          {std::make_shared<core::DirectMethodEstimator>(model), {320, 1586314688u}},
          {std::make_shared<core::DoublyRobustEstimator>(model), {320, 154889257u}},
          {std::make_shared<core::SwitchEstimator>(model, 0.1), {320, 662424022u}},
      };
  // The cap and the threshold act on some records, not all.
  for (const std::size_t e : {1u, 5u}) {
    const double flagged =
        points[e].first->evaluate(data, *greedy).clipped_fraction;
    EXPECT_GT(flagged, 0.0) << points[e].first->name();
    EXPECT_LT(flagged, 1.0) << points[e].first->name();
  }
  for (const auto& [estimator, pin] : points) {
    std::string out;
    for (const core::PolicyPtr& candidate : candidates) {
      append_estimate(out, estimator->evaluate(data, *candidate));
    }
    expect_pinned(out, pin, estimator->name().c_str());
  }

  const core::TrajectoryDataset trajectories =
      core::chop_into_trajectories(data, 5);
  const std::pair<std::shared_ptr<const core::SequenceEstimator>, Pin>
      sequences[] = {
          {std::make_shared<core::TrajectoryIpsEstimator>(false), {320, 1173830618u}},
          {std::make_shared<core::TrajectoryIpsEstimator>(true), {320, 2373184251u}},
          {std::make_shared<core::PerDecisionIpsEstimator>(false), {320, 574590777u}},
          {std::make_shared<core::PerDecisionIpsEstimator>(true), {320, 1089717354u}},
          {std::make_shared<core::SequenceDoublyRobustEstimator>(model, false),
           {320, 1913724366u}},
          {std::make_shared<core::SequenceDoublyRobustEstimator>(model, true),
           {320, 2906684304u}},
          {std::make_shared<core::StepwiseIpsAdapter>(), {320, 2150738195u}},
      };
  for (const auto& [estimator, pin] : sequences) {
    std::string out;
    for (const core::PolicyPtr& candidate : candidates) {
      append_estimate(out, estimator->evaluate(trajectories, *candidate));
    }
    expect_pinned(out, pin, estimator->name().c_str());
  }
}

}  // namespace
}  // namespace harvest
