// Tests of the planned snapshot kind (the serving side of design/ logging
// plans):
//  - decide() under a plan draws from the stratum's row with the row's
//    probability as the logged propensity, bit-exact;
//  - planned snapshots serialize under their own magic, round-trip
//    bit-identically, and reject malformed bytes — while eps-greedy bytes
//    are unchanged from v1.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/service.h"
#include "serve/snapshot.h"
#include "util/rng.h"

namespace harvest::serve {
namespace {

constexpr std::size_t kActions = 3;
constexpr std::size_t kDim = 2;

/// Reference weights: action a scores a-dependent linear functions so each
/// stratum is reachable. Rows (bias, w0, w1).
std::vector<double> test_weights() {
  return {0.1, 1.0, 0.0,     // action 0: 0.1 + x0
          -0.1, 0.0, 1.5,    // action 1: 1.5*x1 - 0.1
          0.9, -1.0, 0.0};   // action 2: 0.9 - x0
}

/// A plan with three distinct, floor-respecting rows.
std::vector<double> test_plan() {
  return {0.8, 0.15, 0.05,
          0.1, 0.8,  0.1,
          0.25, 0.05, 0.7};
}

TEST(PlannedSnapshotTest, DecideDrawsFromStratumRowWithExactPropensity) {
  const PolicySnapshot snap(7, kActions, kDim, test_weights(), test_plan());
  EXPECT_EQ(snap.kind(), SnapshotKind::kPlanned);
  const std::vector<double> plan = test_plan();

  util::Rng rng(101);
  std::vector<std::vector<int>> counts(kActions, std::vector<int>(kActions));
  const int draws = 30000;
  for (int i = 0; i < draws; ++i) {
    const double ctx[kDim] = {rng.uniform(), rng.uniform()};
    const std::span<const double> c(ctx, kDim);
    const std::size_t s = snap.greedy(c);
    const Decision d = snap.decide(c, rng);
    ASSERT_LT(d.action, kActions);
    // The logged propensity must be EXACTLY the plan entry — this is the
    // number the future harvest divides by.
    EXPECT_EQ(d.propensity, plan[s * kActions + d.action]);
    EXPECT_EQ(d.snapshot_id, 7u);
    ++counts[s][d.action];
    // probability() agrees with the plan row for every action.
    for (core::ActionId a = 0; a < kActions; ++a) {
      EXPECT_EQ(snap.probability(c, a), plan[s * kActions + a]);
    }
  }
  // Empirical frequencies track the planned distribution (loose 3-sigma-ish
  // bound; each stratum sees thousands of draws).
  for (std::size_t s = 0; s < kActions; ++s) {
    int total = 0;
    for (int c : counts[s]) total += c;
    ASSERT_GT(total, 1000) << "stratum " << s << " never materialized";
    for (std::size_t a = 0; a < kActions; ++a) {
      const double expected = plan[s * kActions + a];
      const double observed =
          static_cast<double>(counts[s][a]) / static_cast<double>(total);
      EXPECT_NEAR(observed, expected,
                  4 * std::sqrt(expected * (1 - expected) / total) + 1e-3)
          << "stratum " << s << " action " << a;
    }
  }
}

TEST(PlannedSnapshotTest, ProbabilityRejectsActionsOutOfRangeForBothKinds) {
  const std::vector<double> x{0.3, 0.6};
  const PolicySnapshot eps_greedy(1, kActions, kDim, test_weights(), 0.3);
  const PolicySnapshot planned(2, kActions, kDim, test_weights(), test_plan());
  for (const PolicySnapshot* snapshot : {&eps_greedy, &planned}) {
    EXPECT_NO_THROW(snapshot->probability(x, kActions - 1));
    EXPECT_THROW(snapshot->probability(x, kActions), std::out_of_range);
    EXPECT_THROW(snapshot->probability(x, 1000), std::out_of_range);
  }
}

TEST(PlannedSnapshotTest, SerializeRoundTripsUnderOwnMagic) {
  const PolicySnapshot snap(9, kActions, kDim, test_weights(), test_plan());
  const std::string bytes = snap.serialize();
  // Planned snapshots use their own magic; eps-greedy bytes keep v1's, so
  // persisted eps-greedy stores stay readable byte for byte.
  ASSERT_GE(bytes.size(), 4u);
  EXPECT_EQ(bytes.substr(0, 4), "SNP2");
  const PolicySnapshot eps(9, kActions, kDim, test_weights(), 0.2);
  EXPECT_EQ(eps.serialize().substr(0, 4), "SNAP");

  const auto restored = PolicySnapshot::deserialize(bytes);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->kind(), SnapshotKind::kPlanned);
  EXPECT_EQ(restored->id(), 9u);
  EXPECT_TRUE(restored->verify_integrity());
  EXPECT_EQ(restored->serialize(), bytes);
  // The restored snapshot decides identically.
  util::Rng rng_a(55), rng_b(55);
  for (int i = 0; i < 200; ++i) {
    const double ctx[kDim] = {0.01 * i, 1.0 - 0.01 * i};
    const Decision a = snap.decide(std::span<const double>(ctx, kDim), rng_a);
    const Decision b =
        restored->decide(std::span<const double>(ctx, kDim), rng_b);
    EXPECT_EQ(a.action, b.action);
    EXPECT_EQ(a.propensity, b.propensity);
  }
}

TEST(PlannedSnapshotTest, DeserializeRejectsMalformedPlannedBytes) {
  const PolicySnapshot snap(3, kActions, kDim, test_weights(), test_plan());
  const std::string bytes = snap.serialize();
  // Truncation.
  EXPECT_THROW(PolicySnapshot::deserialize(bytes.substr(0, bytes.size() - 8)),
               std::invalid_argument);
  // Corrupt a plan probability into an invalid value (> 1): the planned
  // constructor validation must refuse the payload.
  std::string bad = bytes;
  const double two = 2.0;
  // Plan doubles are the last kActions*kActions*8 bytes.
  std::memcpy(bad.data() + bad.size() - sizeof(double), &two, sizeof(double));
  EXPECT_THROW(PolicySnapshot::deserialize(bad), std::invalid_argument);
}

TEST(PlannedSnapshotTest, ConstructorValidatesPlanRows) {
  const std::uint64_t alive = PolicySnapshot::alive_count();
  // Row not summing to 1.
  std::vector<double> bad = test_plan();
  bad[0] += 0.2;
  EXPECT_THROW(PolicySnapshot(1, kActions, kDim, test_weights(), bad),
               std::invalid_argument);
  // Zero propensity (unharvestable).
  bad = test_plan();
  bad[4] += bad[3];
  bad[3] = 0.0;
  EXPECT_THROW(PolicySnapshot(1, kActions, kDim, test_weights(), bad),
               std::invalid_argument);
  // Wrong geometry.
  bad = test_plan();
  bad.pop_back();
  EXPECT_THROW(PolicySnapshot(1, kActions, kDim, test_weights(), bad),
               std::invalid_argument);
  // A rejected plan leaves no snapshot counted as alive.
  EXPECT_EQ(PolicySnapshot::alive_count(), alive);
}

}  // namespace
}  // namespace harvest::serve
