// Tests of the planned snapshot kind (the serving side of design/ logging
// plans) and of the batched decide path:
//  - decide() under a plan draws from the stratum's row with the row's
//    probability as the logged propensity, bit-exact;
//  - planned snapshots serialize under their own magic, round-trip
//    bit-identically, and reject malformed bytes — while eps-greedy bytes
//    are unchanged from v1;
//  - decide_batch() produces a record stream and rng state bit-identical
//    to the equivalent sequence of decide() calls.
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

// ---- decide_batch ---------------------------------------------------------

std::vector<double> drain_signature(DecisionService& service) {
  std::vector<double> sig;
  service.drain([&sig](const DecisionRecord& rec) {
    sig.push_back(static_cast<double>(rec.action));
    sig.push_back(rec.propensity);
    // NaN rewards (flushed-unlabeled) normalize to one bit pattern for
    // comparison; real rewards compare exactly.
    sig.push_back(std::isnan(rec.reward) ? -1234.5 : rec.reward);
    sig.push_back(static_cast<double>(rec.snapshot_id));
    for (std::uint32_t d = 0; d < rec.dim; ++d) sig.push_back(rec.context[d]);
  });
  return sig;
}

TEST(DecideBatchTest, RecordsBitIdenticalToSequentialDecides) {
  // Two identically seeded services over the same context stream: one
  // decides one by one, the other in uneven batches. Decisions, logged
  // records, counters, and the decider rng stream must match exactly.
  const auto make_service = [] {
    return std::make_unique<DecisionService>(
        DecisionService::Options{.num_actions = kActions, .dim = kDim,
                                 .log_capacity = 1 << 12, .seed = 777},
        PolicySnapshot::from_weights(
            1,
            {{0.1, 1.0, 0.0}, {0.5, 0.0, 0.0}, {0.9, -1.0, 0.0}}, 0.25));
  };
  auto seq_service = make_service();
  auto batch_service = make_service();
  Decider& seq = seq_service->add_decider();
  Decider& batch = batch_service->add_decider();

  constexpr std::size_t kTotal = 1000;
  util::Rng ctx_rng(888);
  std::vector<double> contexts(kTotal * kDim);
  for (double& v : contexts) v = ctx_rng.uniform();

  std::vector<Decision> seq_out(kTotal), batch_out(kTotal);
  for (std::size_t i = 0; i < kTotal; ++i) {
    seq_out[i] = seq.decide(
        std::span<const double>(contexts.data() + i * kDim, kDim));
  }
  // Uneven chunk sizes cover batch=1 and batches spanning ring wraps.
  const std::size_t chunks[] = {1, 7, 64, 256, kTotal};
  std::size_t done = 0;
  for (std::size_t c = 0; done < kTotal; ++c) {
    const std::size_t n = std::min(chunks[c % 5], kTotal - done);
    batch.decide_batch(
        std::span<const double>(contexts.data() + done * kDim, n * kDim),
        std::span<Decision>(batch_out.data() + done, n));
    done += n;
  }

  for (std::size_t i = 0; i < kTotal; ++i) {
    EXPECT_EQ(seq_out[i].action, batch_out[i].action) << "i=" << i;
    EXPECT_EQ(seq_out[i].propensity, batch_out[i].propensity) << "i=" << i;
    EXPECT_EQ(seq_out[i].snapshot_id, batch_out[i].snapshot_id) << "i=" << i;
  }
  EXPECT_EQ(seq.decided(), batch.decided());
  EXPECT_EQ(seq.logged(), batch.logged());
  EXPECT_EQ(seq.dropped(), batch.dropped());
  // Both leave their last decision staged; log it so the streams flush
  // completely, then compare the full record streams.
  seq.log_reward(0.5);
  batch.log_reward(0.5);
  EXPECT_EQ(drain_signature(*seq_service), drain_signature(*batch_service));
  // Post-batch rng states line up: the next decision matches too.
  const double tail[kDim] = {0.33, 0.66};
  const Decision ds = seq.decide(std::span<const double>(tail, kDim));
  const Decision db = batch.decide(std::span<const double>(tail, kDim));
  EXPECT_EQ(ds.action, db.action);
  EXPECT_EQ(ds.propensity, db.propensity);
  seq_service->reclaim_all();
  batch_service->reclaim_all();
}

TEST(DecideBatchTest, EmptyBatchIsANoOp) {
  DecisionService service(
      {.num_actions = kActions, .dim = kDim, .log_capacity = 1 << 8,
       .seed = 5},
      PolicySnapshot::uniform(1, kActions, kDim));
  Decider& decider = service.add_decider();
  decider.decide_batch(std::span<const double>(), std::span<Decision>());
  EXPECT_EQ(decider.decided(), 0u);
}

TEST(DecideBatchTest, WorksWithPlannedSnapshots) {
  // The batched path and the planned kind compose: propensities in the
  // batch output are exact plan entries.
  DecisionService service(
      {.num_actions = kActions, .dim = kDim, .log_capacity = 1 << 10,
       .seed = 99},
      PolicySnapshot::planned(4, kActions, kDim, test_weights(), test_plan()));
  Decider& decider = service.add_decider();
  const std::vector<double> plan = test_plan();

  util::Rng ctx_rng(100);
  constexpr std::size_t kN = 300;
  std::vector<double> contexts(kN * kDim);
  for (double& v : contexts) v = ctx_rng.uniform();
  std::vector<Decision> out(kN);
  decider.decide_batch(std::span<const double>(contexts),
                       std::span<Decision>(out));
  const SnapshotRef snap = decider.snapshot();
  for (std::size_t i = 0; i < kN; ++i) {
    const std::size_t s = snap->greedy(
        std::span<const double>(contexts.data() + i * kDim, kDim));
    EXPECT_EQ(out[i].propensity, plan[s * kActions + out[i].action]);
  }
  service.reclaim_all();
}

}  // namespace
}  // namespace harvest::serve
