// Offline evaluation makes no per-row allocation. Every estimator over the
// realistic candidates (a ridge-greedy policy, eps-greedy over it, and a
// linear policy), and the logging planner, must allocate exactly as often on
// a 32,768-row dataset as on a 65,536-row one. Both sizes reach the 64-shard
// cap of par::ShardPlan::fixed, so per-call and per-shard buffers cost the
// same at both, and any allocation inside a row loop shows up as a
// difference of at least 32,768.
//
// The binary links harvest_allocgate, whose counting operator new backs
// serve::AllocGate. The counters are per thread, so the tests run without a
// pool: every shard executes on the calling thread and is counted.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/estimators/direct.h"
#include "core/estimators/ips.h"
#include "core/estimators/switch.h"
#include "core/policies/basic.h"
#include "core/policies/greedy.h"
#include "core/reward_model.h"
#include "design/planner.h"
#include "par/thread_pool.h"
#include "serve/alloc_gate.h"

namespace harvest::core {
namespace {

constexpr std::size_t kActions = 9;
constexpr std::size_t kDim = 8;
constexpr std::size_t kSmallRows = 32'768;
constexpr std::size_t kLargeRows = 65'536;

ExplorationDataset make_data(std::size_t rows, std::uint64_t seed) {
  util::Rng rng(seed);
  ExplorationDataset data(kActions, {0.0, 1.0});
  data.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<double> x(kDim);
    for (double& v : x) v = rng.uniform(-1.0, 1.0);
    const auto a = static_cast<ActionId>(rng.uniform_index(kActions));
    // Propensities straddle the SWITCH threshold below, so both of its
    // branches run.
    data.add({FeatureVector(std::move(x)), a, rng.uniform(),
              rng.uniform(0.02, 0.3)});
  }
  return data;
}

/// The fixture's shared inputs: one fitted ridge model, the three
/// candidates built on it, and the two dataset sizes.
struct Inputs {
  std::shared_ptr<const RidgeRewardModel> ridge;
  std::vector<PolicyPtr> candidates;  // greedy, eps-greedy, linear
  ExplorationDataset large = make_data(kLargeRows, 11);
  ExplorationDataset small = large.prefix(kSmallRows);

  Inputs() {
    ridge = std::make_shared<const RidgeRewardModel>(
        fit_ridge(make_data(4096, 12), 1.0, /*importance_weighted=*/true));
    auto greedy = std::make_shared<const GreedyPolicy>(ridge);
    std::vector<std::vector<double>> rows;
    for (std::size_t a = 0; a < kActions; ++a) {
      const std::span<const double> row =
          ridge->weights(static_cast<ActionId>(a));
      rows.emplace_back(row.begin(), row.end());
    }
    candidates = {greedy,
                  std::make_shared<const EpsilonGreedyPolicy>(greedy, 0.1),
                  std::make_shared<const LinearPolicy>(std::move(rows))};
  }
};

const Inputs& inputs() {
  static const Inputs in;
  return in;
}

template <typename Fn>
std::uint64_t allocations(Fn&& fn) {
  const serve::AllocGate gate;
  fn();
  return gate.delta();
}

class ScoringAllocTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { par::set_default_threads(1); }
};

using Combo = std::tuple<std::string, int>;  // (estimator, candidate index)

class EstimatorAllocTest : public ScoringAllocTest,
                           public ::testing::WithParamInterface<Combo> {};

TEST_P(EstimatorAllocTest, SameAllocationCountAtEitherSize) {
  const auto& [estimator_name, candidate] = GetParam();
  const Inputs& in = inputs();
  std::unique_ptr<OffPolicyEstimator> estimator;
  if (estimator_name == "ips") {
    estimator = std::make_unique<IpsEstimator>();
  } else if (estimator_name == "clipped_ips") {
    estimator = std::make_unique<ClippedIpsEstimator>(20.0);
  } else if (estimator_name == "snips") {
    estimator = std::make_unique<SnipsEstimator>();
  } else if (estimator_name == "dm") {
    estimator = std::make_unique<DirectMethodEstimator>(in.ridge);
  } else if (estimator_name == "dr") {
    estimator = std::make_unique<DoublyRobustEstimator>(in.ridge);
  } else {
    estimator = std::make_unique<SwitchEstimator>(in.ridge, 0.1);
  }
  const Policy& policy = *in.candidates[candidate];
  double sink = 0;
  const std::uint64_t small = allocations(
      [&] { sink += estimator->evaluate(in.small, policy).value; });
  const std::uint64_t large = allocations(
      [&] { sink += estimator->evaluate(in.large, policy).value; });
  EXPECT_EQ(small, large) << estimator->name() << " over " << policy.name()
                          << " allocates per row";
  EXPECT_TRUE(std::isfinite(sink));
}

std::string combo_name(const ::testing::TestParamInfo<Combo>& info) {
  static const char* const kCandidates[] = {"greedy", "eps_greedy", "linear"};
  return std::get<0>(info.param) + "_" + kCandidates[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    OfflineEvaluation, EstimatorAllocTest,
    ::testing::Combine(::testing::Values("ips", "clipped_ips", "snips", "dm",
                                         "dr", "switch"),
                       ::testing::Values(0, 1, 2)),
    combo_name);

TEST_F(ScoringAllocTest, PlanLoggingSameAllocationCountAtEitherSize) {
  const Inputs& in = inputs();
  const std::span<const double> coefficients = in.ridge->coefficients();
  const std::vector<double> reference(coefficients.begin(),
                                      coefficients.end());
  auto plan = [&](const ExplorationDataset& data) {
    std::vector<double> weights = reference;  // copied outside the gate
    design::PlannerReport report;
    const std::uint64_t count = allocations([&] {
      report = design::plan_logging(data, in.candidates, *in.ridge,
                                    std::move(weights), kDim);
    });
    EXPECT_GT(report.iterations_run, 0u);
    return count;
  };
  EXPECT_EQ(plan(in.small), plan(in.large));
}

}  // namespace
}  // namespace harvest::core
