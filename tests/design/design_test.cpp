// Tests of the logging-policy planner and its deployable artifact, the
// versioned LoggingPlan JSON: feasibility invariants (floor, simplex rows,
// regret budget, never-worse-than-eps-greedy), bit-exact JSON round-trips,
// malformed-input rejection, agreement between the plan's stratum function
// and the serving layer's greedy, and thread-count bit-identity of the
// whole solve.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/policies/basic.h"
#include "core/reward_model.h"
#include "design/plan.h"
#include "design/planner.h"
#include "par/thread_pool.h"
#include "serve/snapshot.h"
#include "testing/fixtures.h"

namespace harvest::design {
namespace {

using harvest::testing::make_environment;

constexpr std::size_t kActions = 3;
constexpr std::size_t kDim = 1;

/// Reference linear policy (kActions rows of kDim+1 doubles, bias first):
/// action 0 scores x, action 1 scores 0.5, action 2 scores 1-x — so the
/// greedy stratum flips from 2 to 0 at x = 0.5 and stratum 1 is empty.
std::vector<double> reference_weights() {
  return {0.0, 1.0,   // action 0
          0.5, 0.0,   // action 1
          1.0, -1.0}; // action 2
}

struct PlannerInputs {
  core::ExplorationDataset harvest;
  std::vector<core::PolicyPtr> candidates;
  std::shared_ptr<core::RidgeRewardModel> model;
};

PlannerInputs make_inputs(std::size_t n = 1500, std::uint64_t seed = 11) {
  util::Rng rng(seed);
  const core::FullFeedbackDataset env = make_environment(n, rng);
  const core::EpsilonGreedyPolicy logging(
      std::make_shared<core::ConstantPolicy>(kActions, 1), 0.4);
  PlannerInputs in{env.simulate_exploration(logging, rng), {}, nullptr};
  in.candidates.push_back(
      std::make_shared<core::ConstantPolicy>(kActions, 0));
  in.candidates.push_back(std::make_shared<core::FunctionPolicy>(
      kActions,
      [](const core::FeatureVector& x) { return x[0] > 0.4 ? 0u : 2u; },
      "threshold"));
  in.candidates.push_back(
      std::make_shared<core::UniformRandomPolicy>(kActions));
  in.model = std::make_shared<core::RidgeRewardModel>(
      core::fit_ridge(in.harvest, 1.0, true));
  return in;
}

PlannerReport plan(const PlannerInputs& in, PlannerConfig config = {}) {
  return plan_logging(in.harvest, in.candidates, *in.model,
                      reference_weights(), kDim, config);
}

TEST(PlannerTest, PlanSatisfiesFloorSimplexAndBudget) {
  const PlannerInputs in = make_inputs();
  PlannerConfig config;
  config.propensity_floor = 0.04;
  const PlannerReport report = plan(in, config);

  const LoggingPlan& p = report.plan;
  ASSERT_EQ(p.num_actions, kActions);
  ASSERT_EQ(p.distributions.size(), kActions * kActions);
  for (std::size_t s = 0; s < kActions; ++s) {
    double sum = 0;
    for (const double q : p.stratum_distribution(s)) {
      EXPECT_GE(q, config.propensity_floor - 1e-12);
      EXPECT_LE(q, 1.0);
      sum += q;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9) << "stratum " << s;
  }
  // The planner may never do worse than its own eps-greedy baseline (it
  // falls back to the baseline plan if the solve cannot beat it).
  EXPECT_LE(report.planned_objective, report.baseline_objective + 1e-9);
  // The enforced regret budget holds for the emitted plan.
  EXPECT_LE(report.planned_regret, report.regret_budget + 1e-9);
  EXPECT_NO_THROW(p.validate());
  EXPECT_EQ(report.candidates.size(), in.candidates.size());
}

TEST(PlannerTest, BeatsBaselineOnSkewedCandidates) {
  // The candidates concentrate on actions 0/2 while eps-greedy logging
  // centers on the reference strata uniformly; the planner should find
  // strictly lower worst-case variance here, not just fall back.
  const PlannerReport report = plan(make_inputs(3000, 19));
  EXPECT_FALSE(report.fell_back_to_baseline);
  EXPECT_LT(report.planned_objective, report.baseline_objective);
}

TEST(PlannerTest, ValidatesInputs) {
  const PlannerInputs in = make_inputs(200, 23);
  // No candidates.
  EXPECT_THROW(plan_logging(in.harvest, {}, *in.model, reference_weights(),
                            kDim, {}),
               std::invalid_argument);
  // Infeasible floor: floor * K > 1.
  PlannerConfig bad_floor;
  bad_floor.propensity_floor = 0.5;
  EXPECT_THROW(plan(in, bad_floor), std::invalid_argument);
  // Floor above eps/K makes the baseline itself violate the floor.
  PlannerConfig floor_vs_eps;
  floor_vs_eps.propensity_floor = 0.1;
  floor_vs_eps.baseline_epsilon = 0.2;  // eps/K = 0.0667 < 0.1
  EXPECT_THROW(plan(in, floor_vs_eps), std::invalid_argument);
  // Empty harvest.
  const core::ExplorationDataset empty(kActions, core::RewardRange{0, 1});
  EXPECT_THROW(plan_logging(empty, in.candidates, *in.model,
                            reference_weights(), kDim, {}),
               std::invalid_argument);
}

TEST(LoggingPlanTest, JsonRoundTripIsBitExact) {
  const PlannerReport report = plan(make_inputs());
  const std::string json = report.plan.to_json();
  const LoggingPlan parsed = LoggingPlan::parse_json(json, "test");
  // %.17g doubles: re-serializing the parsed plan reproduces the bytes.
  EXPECT_EQ(parsed.to_json(), json);
  EXPECT_EQ(parsed.num_actions, report.plan.num_actions);
  EXPECT_EQ(parsed.distributions, report.plan.distributions);
  EXPECT_EQ(parsed.reference_weights, report.plan.reference_weights);
  EXPECT_EQ(parsed.candidate_names, report.plan.candidate_names);
}

TEST(LoggingPlanTest, ParseRejectsMalformedInput) {
  const std::string json = plan(make_inputs(300, 29)).plan.to_json();
  // Garbage and truncation.
  EXPECT_THROW(LoggingPlan::parse_json("not json", "t"),
               std::invalid_argument);
  EXPECT_THROW(LoggingPlan::parse_json("", "t"), std::invalid_argument);
  EXPECT_THROW(
      LoggingPlan::parse_json(json.substr(0, json.size() / 2), "t"),
      std::invalid_argument);
  // Unsupported version.
  std::string bad_version = json;
  bad_version.replace(bad_version.find("\"logging_plan\": 1"),
                      std::string("\"logging_plan\": 1").size(),
                      "\"logging_plan\": 999");
  EXPECT_THROW(LoggingPlan::parse_json(bad_version, "t"),
               std::invalid_argument);
  // A plan whose rows no longer sum to 1 must fail validation on parse.
  std::string bad_rows = json;
  const std::string floor_key = "\"propensity_floor\": ";
  const std::size_t pos = bad_rows.find(floor_key) + floor_key.size();
  const std::size_t end = bad_rows.find(',', pos);
  bad_rows.replace(pos, end - pos, "0.9");  // floor 0.9 * 3 rows > 1
  EXPECT_THROW(LoggingPlan::parse_json(bad_rows, "t"),
               std::invalid_argument);
}

TEST(LoggingPlanTest, ParseRejectsDeepNestingWithItsOwnError) {
  EXPECT_THROW(LoggingPlan::parse_json(std::string(1000000, '['), "deep"),
               std::invalid_argument);
}

TEST(LoggingPlanTest, HostileCandidateNamesRoundTrip) {
  LoggingPlan hostile = plan(make_inputs(300, 37)).plan;
  hostile.candidate_names = {"quote\"d", "back\\slash", "new\nline",
                             "tab\there", "ctl\x01"};
  const std::string json = hostile.to_json();
  const LoggingPlan parsed = LoggingPlan::parse_json(json, "hostile");
  EXPECT_EQ(parsed.candidate_names, hostile.candidate_names);
  EXPECT_EQ(parsed.to_json(), json);
}

TEST(LoggingPlanTest, ValidateRejectsBrokenPlans) {
  LoggingPlan base = plan(make_inputs(300, 31)).plan;
  EXPECT_NO_THROW(base.validate());

  LoggingPlan bad = base;
  bad.distributions[0] += 0.1;  // row 0 no longer sums to 1
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  bad = base;
  bad.distributions[1] = 0.0;  // zero propensity breaks harvestability
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  bad = base;
  bad.reference_weights.pop_back();  // geometry mismatch
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  bad = base;
  bad.distributions[2] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(LoggingPlanTest, StratumOfAgreesWithServeGreedy) {
  // The plan's stratum function IS the serving snapshot's greedy: both call
  // core::LinearScorer. Disagreement would make the executor log
  // propensities from the wrong plan row. The special cases add NaN, signed
  // zero, infinite and exactly tied scores.
  const LoggingPlan p = plan(make_inputs(400, 37)).plan;
  const serve::PolicySnapshot snapshot(1, kActions, kDim,
                                       std::vector<double>(p.reference_weights),
                                       /*epsilon=*/0.0);
  util::Rng rng(38);
  for (int i = 0; i < 500; ++i) {
    // Include the tie point x = 0.5 and out-of-range contexts.
    const double x = (i == 0) ? 0.5 : rng.uniform(-0.5, 1.5);
    const std::span<const double> ctx(&x, 1);
    EXPECT_EQ(p.stratum_of(ctx), snapshot.greedy(ctx)) << "x=" << x;
  }
  for (const harvest::testing::ScoringCase& c :
       harvest::testing::scoring_special_cases()) {
    LoggingPlan special = p;
    special.reference_weights = c.weights;
    const serve::PolicySnapshot special_snapshot(1, kActions, kDim, c.weights,
                                                 /*epsilon=*/0.0);
    const std::span<const double> ctx(&c.x, 1);
    EXPECT_EQ(special.stratum_of(ctx), c.expected) << c.name;
    EXPECT_EQ(special_snapshot.greedy(ctx), c.expected) << c.name;
  }
}

TEST(PlannerDeterminism, PlanJsonBitIdenticalAcrossThreadCounts) {
  const PlannerInputs in = make_inputs(2500, 41);
  par::set_default_threads(1);
  const PlannerReport baseline = plan(in);
  const std::string baseline_json = baseline.plan.to_json();
  for (const std::size_t threads : {2u, 8u}) {
    par::set_default_threads(threads);
    const PlannerReport run = plan(in);
    EXPECT_EQ(baseline_json, run.plan.to_json()) << "threads=" << threads;
    EXPECT_EQ(baseline.planned_objective, run.planned_objective);
    EXPECT_EQ(baseline.baseline_objective, run.baseline_objective);
    EXPECT_EQ(baseline.planned_regret, run.planned_regret);
  }
  par::set_default_threads(1);
}

}  // namespace
}  // namespace harvest::design
