// Pins the exact outputs of every path that scores contexts with linear
// weights: a logging plan's JSON, a retrained snapshot's bytes, the
// (action, propensity) streams of an eps-greedy and of a planned snapshot,
// and the LinearPolicy::choose stream. Each output is reduced to its length
// and CRC32C, so a change to scoring order, tie-break or stratum assignment
// shows up here as a changed constant.
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
// constants were recorded with (glibc, x86-64).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/policies/basic.h"
#include "core/policies/greedy.h"
#include "core/reward_model.h"
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

}  // namespace
}  // namespace harvest
