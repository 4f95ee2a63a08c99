#include <gtest/gtest.h>

#include <memory>

#include "core/policies/basic.h"
#include "lb/frontdoor.h"
#include "lb/lb_sim.h"
#include "lb/routers.h"
#include "lb/server.h"

namespace harvest::lb {
namespace {

TEST(ServerTest, LatencyLawLinearInConnections) {
  Server server(ServerConfig{0.2, 0.05, 0.0, 10.0});
  EXPECT_DOUBLE_EQ(server.latency_for(0), 0.2);
  EXPECT_DOUBLE_EQ(server.latency_for(4), 0.4);
  EXPECT_DOUBLE_EQ(server.latency_if_admitted(), 0.25);
  const double lat = server.admit();
  EXPECT_DOUBLE_EQ(lat, 0.25);
  EXPECT_EQ(server.open_connections(), 1u);
  server.release();
  EXPECT_EQ(server.open_connections(), 0u);
  EXPECT_THROW(server.release(), std::logic_error);
}

TEST(ServerTest, LatencyCapped) {
  Server server(ServerConfig{0.2, 1.0, 0.0, 3.0});
  EXPECT_DOUBLE_EQ(server.latency_for(100), 3.0);
}

TEST(ServerTest, RejectsBadConfig) {
  EXPECT_THROW(Server(ServerConfig{-1.0, 0.1, 0.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Server(ServerConfig{0.1, 0.1, 0.0, 0.0}), std::invalid_argument);
}

RoutingContext ctx_with(std::vector<std::size_t> conns) {
  RoutingContext ctx;
  ctx.open_connections = std::move(conns);
  return ctx;
}

TEST(RandomRouterTest, UniformChoicesAndPropensities) {
  RandomRouter router(4);
  util::Rng rng(1);
  std::vector<int> counts(4, 0);
  const auto ctx = ctx_with({0, 0, 0, 0});
  for (int i = 0; i < 40000; ++i) ++counts[router.route(ctx, rng)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
  for (double p : router.distribution(ctx)) EXPECT_DOUBLE_EQ(p, 0.25);
}

TEST(LeastLoadedRouterTest, PicksMinimumWithLowTieBreak) {
  LeastLoadedRouter router(3);
  util::Rng rng(3);
  EXPECT_EQ(router.route(ctx_with({5, 2, 9}), rng), 1u);
  EXPECT_EQ(router.route(ctx_with({4, 4, 9}), rng), 0u);
  const auto d = router.distribution(ctx_with({5, 2, 9}));
  EXPECT_DOUBLE_EQ(d[1], 1.0);
}

TEST(SendToRouterTest, AlwaysTarget) {
  SendToRouter router(2, 0);
  util::Rng rng(4);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(router.route(ctx_with({100, 0}), rng), 0u);
  }
  EXPECT_EQ(router.name(), "send-to-1");
  EXPECT_THROW(SendToRouter(2, 2), std::invalid_argument);
}

TEST(EpochWeightedRandomRouterTest, WeightsPersistWithinEpoch) {
  EpochWeightedRandomRouter router(3, 100, 0.5);
  util::Rng rng(6);
  const auto ctx = ctx_with({0, 0, 0});
  router.route(ctx, rng);  // triggers redraw
  const auto d1 = router.distribution(ctx);
  for (int i = 0; i < 50; ++i) router.route(ctx, rng);
  const auto d2 = router.distribution(ctx);
  EXPECT_EQ(d1, d2);  // same epoch, same weights
  double sum = 0;
  for (double p : d1) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(EpochWeightedRandomRouterTest, SkewedEpochsAppear) {
  // Low concentration must produce epochs where one server dominates —
  // the richer exploration §5 asks for.
  EpochWeightedRandomRouter router(2, 10, 0.3);
  util::Rng rng(7);
  const auto ctx = ctx_with({0, 0});
  double max_weight_seen = 0;
  double min_weight_seen = 1;
  for (int e = 0; e < 200; ++e) {
    for (int i = 0; i < 10; ++i) router.route(ctx, rng);
    const auto d = router.distribution(ctx);
    max_weight_seen = std::max({max_weight_seen, d[0], d[1]});
    min_weight_seen = std::min({min_weight_seen, d[0], d[1]});
  }
  // Heavily skewed epochs appear, but the propensity floor (default 0.05)
  // keeps importance weights bounded.
  EXPECT_GT(max_weight_seen, 0.90);
  EXPECT_GE(min_weight_seen, 0.05 - 1e-12);
}

TEST(EpochWeightedRandomRouterTest, RejectsBadMinWeight) {
  EXPECT_THROW(EpochWeightedRandomRouter(2, 10, 0.3, 0.6),
               std::invalid_argument);
  EXPECT_THROW(EpochWeightedRandomRouter(2, 10, 0.3, -0.1),
               std::invalid_argument);
}

TEST(CbRouterTest, FollowsPolicy) {
  auto policy = std::make_shared<core::FunctionPolicy>(
      2,
      [](const core::FeatureVector& x) { return x[0] <= x[1] ? 0u : 1u; },
      "least-conns-as-policy");
  CbRouter router(policy);
  util::Rng rng(8);
  EXPECT_EQ(router.route(ctx_with({3, 7}), rng), 0u);
  EXPECT_EQ(router.route(ctx_with({9, 7}), rng), 1u);
}

LbConfig small_config() {
  LbConfig config = fig5_config();
  config.num_requests = 4000;
  config.warmup_requests = 500;
  return config;
}

TEST(LbSimTest, RequestConservation) {
  LbConfig config = small_config();
  RandomRouter router(2);
  util::Rng rng(9);
  const LbResult result = run_lb(config, router, rng);
  EXPECT_EQ(result.measured_requests,
            config.num_requests - config.warmup_requests);
  std::size_t total = 0;
  for (std::size_t c : result.per_server_requests) total += c;
  EXPECT_EQ(total, result.measured_requests);
  EXPECT_EQ(result.log.size(), result.measured_requests);
  EXPECT_EQ(result.exploration.size(), result.measured_requests);
}

TEST(LbSimTest, ExplorationPropensitiesMatchRouter) {
  LbConfig config = small_config();
  RandomRouter router(2);
  util::Rng rng(10);
  const LbResult result = run_lb(config, router, rng);
  for (const auto& pt : result.exploration.points()) {
    EXPECT_DOUBLE_EQ(pt.propensity, 0.5);
    EXPECT_GE(pt.reward, 0.0);
    EXPECT_LE(pt.reward, 1.0);
  }
}

TEST(LbSimTest, LeastLoadedBeatsRandomOnline) {
  LbConfig config = small_config();
  config.num_requests = 12000;
  util::Rng rng1(11), rng2(11);
  RandomRouter random_router(2);
  LeastLoadedRouter ll_router(2);
  const double random_lat = run_lb(config, random_router, rng1).mean_latency;
  const double ll_lat = run_lb(config, ll_router, rng2).mean_latency;
  EXPECT_LT(ll_lat, random_lat);
}

TEST(LbSimTest, SendToOneOverloadsOnline) {
  LbConfig config = small_config();
  config.num_requests = 12000;
  util::Rng rng1(12), rng2(12);
  RandomRouter random_router(2);
  SendToRouter send1(2, 0);
  const double random_lat = run_lb(config, random_router, rng1).mean_latency;
  const double send1_lat = run_lb(config, send1, rng2).mean_latency;
  // The Table 2 inversion: online, send-to-1 is far worse than random.
  EXPECT_GT(send1_lat, 1.2 * random_lat);
}

TEST(LbSimTest, HeavyRequestsPayThePenaltyOnServer2) {
  // With heavy_fraction = 1 and all traffic on server 2, every request pays
  // the heavy penalty; with heavy_fraction = 0, none do.
  LbConfig config = fig5_config();
  config.num_requests = 3000;
  config.warmup_requests = 300;
  config.arrival_rate = 2.0;  // light load isolates the base + penalty
  auto mean_latency = [&](double heavy_fraction) {
    config.heavy_fraction = heavy_fraction;
    SendToRouter to2(2, 1);
    util::Rng rng(21);
    return run_lb(config, to2, rng).mean_latency;
  };
  const double light = mean_latency(0.0);
  const double heavy = mean_latency(1.0);
  // Slightly above the configured penalty: slower requests also raise the
  // open-connection count (second-order queueing feedback).
  EXPECT_NEAR(heavy - light, config.servers[1].heavy_penalty, 0.02);
  EXPECT_GE(heavy - light, config.servers[1].heavy_penalty - 1e-9);
}

TEST(LbSimTest, HeavyFlagLoggedAndInContext) {
  LbConfig config = fig5_config();
  config.num_requests = 2000;
  config.warmup_requests = 200;
  config.heavy_fraction = 0.5;
  RandomRouter router(2);
  util::Rng rng(22);
  const LbResult result = run_lb(config, router, rng);
  std::size_t heavy_logged = 0;
  for (const auto& rec : result.log.records()) {
    heavy_logged += rec.integer("heavy").value_or(0) == 1 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(heavy_logged) / result.log.size(), 0.5,
              0.05);
  // The context feature vector carries the flag as its last entry.
  std::size_t heavy_in_context = 0;
  for (const auto& pt : result.exploration.points()) {
    ASSERT_EQ(pt.context.size(), 3u);
    heavy_in_context += pt.context[2] == 1.0 ? 1 : 0;
  }
  EXPECT_EQ(heavy_in_context, heavy_logged);
}

TEST(LbSimTest, EpochRouterPropensitiesMatchEpochWeights) {
  LbConfig config = fig5_config();
  config.num_requests = 3000;
  config.warmup_requests = 300;
  EpochWeightedRandomRouter router(2, 100, 0.5);
  util::Rng rng(23);
  const LbResult result = run_lb(config, router, rng);
  // Every logged propensity is a valid epoch weight: within [0.05, 0.95]
  // (the floor) and the per-point propensity matches the chosen server's
  // weight, so p in {w0, w1} with w0 + w1 = 1 — check the floor bound here.
  for (const auto& pt : result.exploration.points()) {
    EXPECT_GE(pt.propensity, 0.05 - 1e-9);
    EXPECT_LE(pt.propensity, 0.95 + 1e-9);
  }
  EXPECT_LT(result.exploration.min_propensity(), 0.45);  // epochs do skew
}

TEST(LbSimTest, RewardLatencyMapping) {
  EXPECT_DOUBLE_EQ(latency_to_reward(0.0, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(latency_to_reward(2.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(latency_to_reward(5.0, 2.0), 0.0);  // clamped
  EXPECT_DOUBLE_EQ(reward_to_latency(latency_to_reward(0.7, 2.0), 2.0), 0.7);
}

TEST(LbSimTest, Validation) {
  LbConfig config;  // no servers
  RandomRouter router(2);
  util::Rng rng(13);
  EXPECT_THROW(run_lb(config, router, rng), std::invalid_argument);
  config = small_config();
  RandomRouter wrong(3);
  EXPECT_THROW(run_lb(config, wrong, rng), std::invalid_argument);
  config.warmup_requests = config.num_requests;
  EXPECT_THROW(run_lb(config, router, rng), std::invalid_argument);
}

TEST(FrontDoorTest, PartitionValidation) {
  auto make = [](std::vector<std::vector<std::size_t>> clusters) {
    std::vector<RouterPtr> locals;
    for (const auto& c : clusters) {
      locals.push_back(std::make_unique<RandomRouter>(c.size()));
    }
    return HierarchicalRouter(
        clusters, std::make_unique<RandomRouter>(clusters.size()),
        std::move(locals));
  };
  EXPECT_NO_THROW(make({{0, 1}, {2, 3}}));
  EXPECT_THROW(make({{0, 1}, {1, 2}}), std::invalid_argument);  // overlap
  EXPECT_THROW(make({{0, 1}, {}}), std::invalid_argument);      // empty
}

TEST(FrontDoorTest, DistributionIsProductOfLevels) {
  std::vector<RouterPtr> locals;
  locals.push_back(std::make_unique<RandomRouter>(2));
  locals.push_back(std::make_unique<RandomRouter>(3));
  HierarchicalRouter fd({{0, 1}, {2, 3, 4}},
                        std::make_unique<RandomRouter>(2), std::move(locals));
  const auto d = fd.distribution(ctx_with({0, 0, 0, 0, 0}));
  ASSERT_EQ(d.size(), 5u);
  EXPECT_NEAR(d[0], 0.25, 1e-12);      // 1/2 * 1/2
  EXPECT_NEAR(d[2], 1.0 / 6.0, 1e-12); // 1/2 * 1/3
  double sum = 0;
  for (double p : d) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(FrontDoorTest, EdgeContextAggregatesClusterLoads) {
  std::vector<RouterPtr> locals;
  locals.push_back(std::make_unique<RandomRouter>(2));
  locals.push_back(std::make_unique<RandomRouter>(2));
  HierarchicalRouter fd({{0, 1}, {2, 3}}, std::make_unique<RandomRouter>(2),
                        std::move(locals));
  const auto edge = fd.edge_context(ctx_with({1, 2, 3, 4}));
  ASSERT_EQ(edge.open_connections.size(), 2u);
  EXPECT_EQ(edge.open_connections[0], 3u);
  EXPECT_EQ(edge.open_connections[1], 7u);
  EXPECT_EQ(fd.cluster_of(3), 1u);
  EXPECT_DOUBLE_EQ(fd.edge_epsilon(), 0.5);
}

TEST(FrontDoorTest, RoutesWithinChosenCluster) {
  std::vector<RouterPtr> locals;
  locals.push_back(std::make_unique<LeastLoadedRouter>(2));
  locals.push_back(std::make_unique<LeastLoadedRouter>(2));
  HierarchicalRouter fd({{0, 1}, {2, 3}},
                        std::make_unique<LeastLoadedRouter>(2),
                        std::move(locals));
  util::Rng rng(14);
  // Cluster 0 total load 10, cluster 1 total load 2 -> edge picks cluster 1;
  // within it, server 3 has fewer conns.
  EXPECT_EQ(fd.route(ctx_with({5, 5, 2, 0}), rng), 3u);
}

TEST(FrontDoorTest, EvenClustersPartition) {
  const auto clusters = even_clusters(10, 3);
  ASSERT_EQ(clusters.size(), 3u);
  std::size_t total = 0;
  for (const auto& c : clusters) total += c.size();
  EXPECT_EQ(total, 10u);
  EXPECT_THROW(even_clusters(2, 5), std::invalid_argument);
}

TEST(FrontDoorTest, RunsInsideLbSim) {
  LbConfig config;
  config.servers.assign(4, ServerConfig{0.2, 0.02, 0.0, 2.0});
  config.arrival_rate = 40;
  config.num_requests = 3000;
  config.warmup_requests = 300;
  std::vector<RouterPtr> locals;
  locals.push_back(std::make_unique<RandomRouter>(2));
  locals.push_back(std::make_unique<RandomRouter>(2));
  HierarchicalRouter fd({{0, 1}, {2, 3}}, std::make_unique<RandomRouter>(2),
                        std::move(locals));
  util::Rng rng(15);
  const LbResult result = run_lb(config, fd, rng);
  EXPECT_EQ(result.measured_requests, 2700u);
  for (std::size_t c : result.per_server_requests) EXPECT_GT(c, 0u);
  // Harvested propensities are the two-level products (1/4 each here).
  EXPECT_DOUBLE_EQ(result.exploration.min_propensity(), 0.25);
}

}  // namespace
}  // namespace harvest::lb
