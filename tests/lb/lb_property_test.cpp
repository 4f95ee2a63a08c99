// Parameterized invariants of the LB simulation across every router type:
// request conservation, valid exploration tuples, and propensity/behaviour
// consistency (logged propensities must match realized action frequencies).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "core/policies/basic.h"
#include "lb/frontdoor.h"
#include "lb/lb_sim.h"
#include "lb/routers.h"
#include "testing/fixtures.h"

namespace harvest::lb {
namespace {

using harvest::testing::make_router;

class LbRouterInvariants : public ::testing::TestWithParam<std::string> {};

TEST_P(LbRouterInvariants, ConservationAndValidExploration) {
  LbConfig config = fig5_config();
  config.num_requests = 4000;
  config.warmup_requests = 400;
  RouterPtr router = make_router(GetParam());
  util::Rng rng(77);
  const LbResult result = run_lb(config, *router, rng);

  // Conservation: every measured request was routed exactly once.
  std::size_t total = 0;
  for (std::size_t c : result.per_server_requests) total += c;
  EXPECT_EQ(total, result.measured_requests);
  EXPECT_EQ(result.measured_requests,
            config.num_requests - config.warmup_requests);
  EXPECT_EQ(result.log.size(), result.measured_requests);

  // Every harvested tuple is well-formed.
  for (const auto& pt : result.exploration.points()) {
    EXPECT_LT(pt.action, 2u);
    EXPECT_GE(pt.reward, 0.0);
    EXPECT_LE(pt.reward, 1.0);
    EXPECT_GT(pt.propensity, 0.0);
    EXPECT_LE(pt.propensity, 1.0);
  }

  // Latencies are within the physical range of the latency law.
  EXPECT_GE(result.mean_latency, config.servers[0].base_latency);
  EXPECT_LE(result.p99_latency, config.servers[0].latency_cap + 1e-9);
}

TEST_P(LbRouterInvariants, LoggedPropensitiesMatchBehaviourForRandomized) {
  const std::string kind = GetParam();
  if (kind != "random") {
    GTEST_SKIP() << "propensity/frequency identity only for stationary "
                    "context-free randomized routers";
  }
  LbConfig config = fig5_config();
  config.num_requests = 20000;
  config.warmup_requests = 1000;
  RouterPtr router = make_router(kind);
  util::Rng rng(78);
  const LbResult result = run_lb(config, *router, rng);

  // Realized per-action frequency must match the (constant) logged
  // propensity of that action.
  std::map<core::ActionId, std::size_t> counts;
  std::map<core::ActionId, double> propensity;
  for (const auto& pt : result.exploration.points()) {
    ++counts[pt.action];
    propensity[pt.action] = pt.propensity;
  }
  for (const auto& [action, count] : counts) {
    const double freq =
        static_cast<double>(count) /
        static_cast<double>(result.exploration.size());
    EXPECT_NEAR(freq, propensity[action], 0.02) << "action " << action;
  }
}

INSTANTIATE_TEST_SUITE_P(AllRouters, LbRouterInvariants,
                         ::testing::Values("random", "least-loaded",
                                           "send-to-1", "epoch", "cb"));

}  // namespace
}  // namespace harvest::lb
