// Unit tests for the online decision service: snapshot semantics, exact
// propensities, ring accounting, hazard-protected reclamation, the trainer,
// and the zero-allocation guarantee of the decide path (the allocation-
// counting gate this binary links via harvest_allocgate).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "core/policies/greedy.h"
#include "core/reward_model.h"
#include "serve/alloc_gate.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "serve/trainer.h"
#include "testing/fixtures.h"
#include "util/rng.h"

namespace harvest::serve {
namespace {

std::vector<std::vector<double>> random_weights(std::size_t num_actions,
                                                std::size_t dim,
                                                util::Rng& rng) {
  std::vector<std::vector<double>> w(num_actions,
                                     std::vector<double>(dim + 1));
  for (auto& row : w) {
    for (auto& v : row) v = rng.uniform(-1, 1);
  }
  return w;
}

TEST(PolicySnapshotTest, GreedyMatchesLinearPolicy) {
  util::Rng rng(7);
  const auto weights = random_weights(5, 6, rng);
  const auto snap = PolicySnapshot::from_weights(1, weights, 0.0);
  const core::LinearPolicy policy(weights);
  for (int i = 0; i < 500; ++i) {
    std::vector<double> x(6);
    for (auto& v : x) v = rng.uniform(-2, 2);
    EXPECT_EQ(snap->greedy(x), policy.choose(core::FeatureVector(x)));
  }
  for (const testing::ScoringCase& c : testing::scoring_special_cases()) {
    std::vector<std::vector<double>> rows;
    for (std::size_t a = 0; a < 3; ++a) {
      rows.emplace_back(c.weights.begin() + 2 * a,
                        c.weights.begin() + 2 * a + 2);
    }
    const auto special = PolicySnapshot::from_weights(1, rows, 0.0);
    const std::vector<double> x{c.x};
    EXPECT_EQ(special->greedy(x), c.expected) << c.name;
    EXPECT_EQ(core::LinearPolicy(rows).choose(core::FeatureVector(x)),
              c.expected)
        << c.name;
  }
}

TEST(PolicySnapshotTest, DecidePropensityIsExact) {
  util::Rng rng(8);
  const double eps = 0.3;
  const std::size_t k = 4;
  const auto snap =
      PolicySnapshot::from_weights(2, random_weights(k, 3, rng), eps);
  util::Rng draw(9);
  int explored = 0;
  for (int i = 0; i < 2000; ++i) {
    std::vector<double> x{rng.uniform(), rng.uniform(), rng.uniform()};
    const Decision d = snap->decide(x, draw);
    // The logged propensity is exactly pi(a|x).
    EXPECT_EQ(d.propensity, snap->probability(x, d.action));
    EXPECT_GE(d.propensity, eps / static_cast<double>(k));
    EXPECT_EQ(d.snapshot_id, 2u);
    if (d.action != snap->greedy(x)) ++explored;
  }
  // eps * (k-1)/k of decisions should leave the greedy action; loose bound.
  EXPECT_GT(explored, 200);
  EXPECT_LT(explored, 800);
}

TEST(PolicySnapshotTest, UniformSnapshotHasUniformPropensity) {
  const auto snap = PolicySnapshot::uniform(1, 5, 2);
  util::Rng rng(10);
  std::vector<double> x{0.1, 0.9};
  for (int i = 0; i < 100; ++i) {
    const Decision d = snap->decide(x, rng);
    EXPECT_EQ(d.propensity, 1.0 / 5.0);
  }
}

TEST(PolicySnapshotTest, SerializeIsDeterministicAndSensitive) {
  util::Rng rng(11);
  const auto weights = random_weights(3, 4, rng);
  const auto a = PolicySnapshot::from_weights(5, weights, 0.25);
  const auto b = PolicySnapshot::from_weights(5, weights, 0.25);
  EXPECT_EQ(a->serialize(), b->serialize());
  auto perturbed = weights;
  perturbed[1][2] += 1e-15;
  const auto c = PolicySnapshot::from_weights(5, perturbed, 0.25);
  EXPECT_NE(a->serialize(), c->serialize());
}

TEST(PolicySnapshotTest, ConstructorValidates) {
  EXPECT_THROW(PolicySnapshot(1, 0, 2, {}, 0.1), std::invalid_argument);
  EXPECT_THROW(PolicySnapshot(1, 2, 2, {1, 2, 3}, 0.1),
               std::invalid_argument);
  EXPECT_THROW(PolicySnapshot(1, 1, 0, {1.0}, 1.5), std::invalid_argument);
  EXPECT_THROW(PolicySnapshot(1, 1, 0, {1.0}, -0.1), std::invalid_argument);
}

TEST(PolicySnapshotTest, IntegrityAndAliveCount) {
  const std::uint64_t before = PolicySnapshot::alive_count();
  {
    const auto snap = PolicySnapshot::uniform(1, 3, 2);
    EXPECT_TRUE(snap->verify_integrity());
    EXPECT_EQ(PolicySnapshot::alive_count(), before + 1);
  }
  EXPECT_EQ(PolicySnapshot::alive_count(), before);
}

DecisionService::Options small_service(std::size_t log_capacity = 1 << 10) {
  return {.num_actions = 3, .dim = 2, .log_capacity = log_capacity,
          .seed = 77};
}

TEST(DecisionServiceTest, ConstructorValidatesGeometry) {
  EXPECT_THROW(DecisionService({.num_actions = 0, .dim = 2},
                               PolicySnapshot::uniform(1, 3, 2)),
               std::invalid_argument);
  EXPECT_THROW(DecisionService({.num_actions = 3, .dim = 99},
                               PolicySnapshot::uniform(1, 3, 99)),
               std::invalid_argument);
  EXPECT_THROW(DecisionService({.num_actions = 3, .dim = 2},
                               PolicySnapshot::uniform(1, 4, 2)),
               std::invalid_argument);
  DecisionService service(small_service(), PolicySnapshot::uniform(1, 3, 2));
  EXPECT_THROW(service.publish(PolicySnapshot::uniform(2, 3, 5)),
               std::invalid_argument);
}

TEST(DecisionServiceTest, WrongSizeContextThrowsBeforeStaging) {
  // Checked in every build type: a longer context would overflow the staged
  // record's kMaxContextDim buffer, a shorter one would be read past its end.
  DecisionService service(small_service(), PolicySnapshot::uniform(1, 3, 2));
  Decider& d = service.add_decider();
  const std::vector<double> good{0.1, 0.2};
  const std::vector<double> shorter{0.1};
  const std::vector<double> longer(kMaxContextDim + 1, 0.1);
  d.decide(good);  // staged, waiting for its reward
  EXPECT_THROW(d.decide(shorter), std::invalid_argument);
  EXPECT_THROW(d.decide(longer), std::invalid_argument);
  EXPECT_EQ(d.decided(), 1u);
  d.log_reward(0.5);  // still labels the first decision
  EXPECT_EQ(d.orphaned(), 0u);
  std::vector<DecisionRecord> records;
  service.drain([&records](const DecisionRecord& r) { records.push_back(r); });
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].reward, 0.5);
  EXPECT_EQ(records[0].dim, 2u);
}

TEST(DecisionServiceTest, RingAccountingIsExact) {
  // Capacity 8: 100 logged decisions -> 8 in the ring, 92 dropped, zero
  // silent losses.
  DecisionService service(small_service(8),
                          PolicySnapshot::uniform(1, 3, 2));
  Decider& d = service.add_decider();
  const std::vector<double> x{0.5, 0.5};
  for (int i = 0; i < 100; ++i) d.decide_logged(x, 1.0);
  EXPECT_EQ(d.decided(), 100u);
  EXPECT_EQ(d.logged(), 8u);
  EXPECT_EQ(d.dropped(), 92u);
  EXPECT_EQ(d.logged() + d.dropped(), d.decided());

  std::size_t drained = 0;
  const ServeDrainStats stats =
      service.drain([&drained](const DecisionRecord&) { ++drained; });
  EXPECT_EQ(stats.drained, 8u);
  EXPECT_EQ(drained, 8u);
  EXPECT_EQ(stats.dropped_total, 92u);
  EXPECT_EQ(stats.orphaned_rewards, 0u);

  // Ring empty again: the next decisions all fit.
  for (int i = 0; i < 8; ++i) d.decide_logged(x, 1.0);
  EXPECT_EQ(d.dropped(), 92u);

  // Conservation with orphans in the mix: a reward arriving with nothing
  // staged is counted as orphaned and changes no other ledger. Every
  // decision is still accounted for exactly once.
  d.log_reward(0.25);  // nothing staged: decide_logged consumed it
  d.log_reward(0.75);
  EXPECT_EQ(d.orphaned(), 2u);
  EXPECT_EQ(d.decided(), 108u);
  const ServeDrainStats stats2 = service.drain([](const DecisionRecord&) {});
  EXPECT_EQ(stats2.orphaned_rewards, 2u);
  EXPECT_EQ(stats2.dropped_total, 92u);
  // decided == pushed + dropped (no staged record pending).
  EXPECT_EQ(d.decided(), d.logged() + d.dropped());
}

TEST(DecisionServiceTest, LateRewardAfterNaNFlushIsOrphaned) {
  // The exact satellite scenario: decide, never report, decide again (the
  // staged record flushes as NaN), then the late reward arrives. It must be
  // counted, not silently ignored.
  DecisionService service(small_service(),
                          PolicySnapshot::uniform(1, 3, 2));
  Decider& d = service.add_decider();
  const std::vector<double> x{0.1, 0.2};
  d.decide(x);
  d.decide(x);          // flushes the first as NaN
  d.log_reward(0.5);    // labels the second
  d.log_reward(0.9);    // late: its record is already gone
  EXPECT_EQ(d.orphaned(), 1u);
  std::vector<DecisionRecord> records;
  const ServeDrainStats stats = service.drain(
      [&records](const DecisionRecord& r) { records.push_back(r); });
  ASSERT_EQ(records.size(), 2u);
  EXPECT_TRUE(std::isnan(records[0].reward));
  EXPECT_EQ(records[1].reward, 0.5);
  EXPECT_EQ(stats.orphaned_rewards, 1u);
}

TEST(DecisionServiceTest, UnreportedDecisionFlushedAsNaN) {
  DecisionService service(small_service(),
                          PolicySnapshot::uniform(1, 3, 2));
  Decider& d = service.add_decider();
  const std::vector<double> x{0.1, 0.2};
  d.decide(x);          // never reward-labeled
  d.decide(x);          // flushes the first as NaN
  d.log_reward(0.75);   // labels the second
  std::vector<DecisionRecord> records;
  service.drain([&records](const DecisionRecord& r) { records.push_back(r); });
  ASSERT_EQ(records.size(), 2u);
  EXPECT_TRUE(std::isnan(records[0].reward));
  EXPECT_EQ(records[1].reward, 0.75);
  EXPECT_EQ(records[0].context[0], 0.1);
  EXPECT_EQ(records[0].context[1], 0.2);
}

TEST(DecisionServiceTest, RecordCarriesFullTuple) {
  util::Rng rng(13);
  const auto weights = random_weights(3, 2, rng);
  DecisionService service(small_service(),
                          PolicySnapshot::from_weights(9, weights, 0.2));
  Decider& d = service.add_decider();
  const std::vector<double> x{0.3, 0.8};
  const Decision dec = d.decide_logged(x, 0.6);
  std::vector<DecisionRecord> records;
  service.drain([&records](const DecisionRecord& r) { records.push_back(r); });
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].action, dec.action);
  EXPECT_EQ(records[0].propensity, dec.propensity);
  EXPECT_EQ(records[0].snapshot_id, 9u);
  EXPECT_EQ(records[0].dim, 2u);
  EXPECT_EQ(records[0].decider, 0u);
  EXPECT_EQ(records[0].reward, 0.6);
}

TEST(DecisionServiceTest, PublishSwapsAndReclaims) {
  DecisionService service(small_service(),
                          PolicySnapshot::uniform(1, 3, 2));
  EXPECT_EQ(service.current_id(), 1u);
  service.publish(PolicySnapshot::uniform(2, 3, 2));
  EXPECT_EQ(service.current_id(), 2u);
  EXPECT_EQ(service.swaps(), 1u);
  EXPECT_TRUE(service.was_published(1));
  EXPECT_TRUE(service.was_published(2));
  EXPECT_FALSE(service.was_published(3));
  // No deciders hold a hazard: the retired snapshot is reclaimable.
  service.try_reclaim();
  EXPECT_EQ(service.retired_count(), 0u);
  EXPECT_EQ(service.reclaimed(), 1u);
}

TEST(DecisionServiceTest, HeldRefBlocksReclamation) {
  const std::uint64_t baseline = PolicySnapshot::alive_count();
  DecisionService service(small_service(),
                          PolicySnapshot::uniform(1, 3, 2));
  Decider& d = service.add_decider();
  {
    const SnapshotRef ref = d.snapshot();
    EXPECT_EQ(ref->id(), 1u);
    service.publish(PolicySnapshot::uniform(2, 3, 2));
    service.try_reclaim();
    // Snapshot 1 is retired but held by the ref: it must stay alive and
    // intact.
    EXPECT_EQ(service.retired_count(), 1u);
    EXPECT_TRUE(ref->verify_integrity());
    EXPECT_EQ(PolicySnapshot::alive_count(), baseline + 2);
  }
  service.try_reclaim();
  EXPECT_EQ(service.retired_count(), 0u);
  EXPECT_EQ(PolicySnapshot::alive_count(), baseline + 1);
}

TEST(DecisionServiceTest, PublishWithMintsSequentialIds) {
  DecisionService service(small_service(),
                          PolicySnapshot::uniform(1, 3, 2));
  const auto make = [](std::uint64_t id) {
    return PolicySnapshot::uniform(id, 3, 2);
  };
  EXPECT_EQ(service.publish_with(make), 2u);
  EXPECT_EQ(service.publish_with(make), 3u);
  // An explicit-id publish advances the internal counter past it.
  service.publish(PolicySnapshot::uniform(10, 3, 2));
  EXPECT_EQ(service.publish_with(make), 11u);
  // A callback that ignores the assigned id is refused.
  EXPECT_THROW(service.publish_with([](std::uint64_t) {
                 return PolicySnapshot::uniform(999, 3, 2);
               }),
               std::invalid_argument);
}

TEST(DecisionServiceTest, RacingPublishersNeverMintDuplicateIds) {
  // The satellite bug: computing current_id() + 1 outside the publish lock
  // let two racing publishers mint the same id. publish_with() assigns the
  // id inside the lock, so every publish gets a distinct one.
  DecisionService service(small_service(),
                          PolicySnapshot::uniform(1, 3, 2));
  constexpr int kPerThread = 50;
  std::vector<std::uint64_t> ids(2 * kPerThread, 0);
  std::vector<std::thread> publishers;
  for (int t = 0; t < 2; ++t) {
    publishers.emplace_back([&service, &ids, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ids[static_cast<std::size_t>(t * kPerThread + i)] =
            service.publish_with([](std::uint64_t id) {
              return PolicySnapshot::uniform(id, 3, 2);
            });
      }
    });
  }
  for (auto& p : publishers) p.join();
  std::sort(ids.begin(), ids.end());
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end())
      << "duplicate snapshot id minted by racing publishers";
  EXPECT_EQ(ids.front(), 2u);
  EXPECT_EQ(ids.back(), 1u + 2 * kPerThread);
  service.reclaim_all();
}

TEST(DecisionServiceTest, DeciderAcquiresLatestSnapshot) {
  DecisionService service(small_service(),
                          PolicySnapshot::uniform(1, 3, 2));
  Decider& d = service.add_decider();
  const std::vector<double> x{0.5, 0.5};
  EXPECT_EQ(d.decide_logged(x, 0).snapshot_id, 1u);
  service.publish(PolicySnapshot::uniform(7, 3, 2));
  EXPECT_EQ(d.decide_logged(x, 0).snapshot_id, 7u);
}

TEST(SnapshotTrainerTest, CollectSkipsUnlabeledAndBuffersRest) {
  DecisionService service(small_service(),
                          PolicySnapshot::uniform(1, 3, 2));
  Decider& d = service.add_decider();
  SnapshotTrainer trainer(service, {.min_rows = 4});
  const std::vector<double> x{0.2, 0.4};
  d.decide(x);  // unlabeled
  d.decide(x);  // flushes previous as NaN
  d.log_reward(1.0);
  for (int i = 0; i < 5; ++i) d.decide_logged(x, 0.5);
  EXPECT_EQ(trainer.collect(), 7u);
  EXPECT_EQ(trainer.unlabeled_dropped(), 1u);
  EXPECT_EQ(trainer.buffered_rows(), 6u);
}

TEST(SnapshotTrainerTest, TrainAndPublishLearnsTheBetterAction) {
  DecisionService service(small_service(),
                          PolicySnapshot::uniform(1, 3, 2));
  Decider& d = service.add_decider();
  SnapshotTrainer trainer(service,
                          {.epsilon = 0.1, .min_rows = 32,
                           .reward_range = {0, 1}});
  util::Rng rng(21);
  double ctx[2];
  for (int i = 0; i < 600; ++i) {
    ctx[0] = rng.uniform();
    ctx[1] = rng.uniform();
    const Decision dec = d.decide(std::span<const double>(ctx, 2));
    // Action 1 pays best everywhere.
    d.log_reward(dec.action == 1 ? 0.9 : 0.2);
  }
  trainer.collect();
  const std::uint64_t id = trainer.train_and_publish();
  EXPECT_EQ(id, 2u);
  EXPECT_EQ(service.current_id(), 2u);
  EXPECT_EQ(trainer.published(), 1u);
  // The retrained snapshot should now pick action 1 greedily.
  const SnapshotRef ref = d.snapshot();
  EXPECT_EQ(ref->epsilon(), 0.1);
  std::vector<double> x{0.5, 0.5};
  EXPECT_EQ(ref->greedy(x), 1u);
}

TEST(SnapshotTrainerTest, IngestSkipsAndCountsDimMismatchedRecords) {
  // A record whose dim disagrees with the service geometry must be skipped
  // and counted, never silently truncated into the training buffer.
  DecisionService service(small_service(),
                          PolicySnapshot::uniform(1, 3, 2));
  SnapshotTrainer trainer(service, {.min_rows = 4});
  DecisionRecord rec;
  rec.reward = 0.5;
  rec.propensity = 1.0 / 3.0;
  rec.action = 1;
  rec.dim = 5;  // service dim is 2
  rec.context[0] = 0.1;
  EXPECT_FALSE(trainer.ingest(rec));
  EXPECT_EQ(trainer.dim_mismatch_dropped(), 1u);
  EXPECT_EQ(trainer.buffered_rows(), 0u);
  rec.dim = 2;
  EXPECT_TRUE(trainer.ingest(rec));
  EXPECT_EQ(trainer.dim_mismatch_dropped(), 1u);
  EXPECT_EQ(trainer.buffered_rows(), 1u);
}

TEST(SnapshotTrainerTest, StopReturnsPromptlyMidPeriod) {
  // Regression: the worker used sleep_for(period), so stop() blocked for up
  // to a full period. With the condition-variable wait it returns as soon
  // as the in-flight (here: trivial) iteration finishes.
  DecisionService service(small_service(),
                          PolicySnapshot::uniform(1, 3, 2));
  SnapshotTrainer trainer(service, {.min_rows = 1 << 20});
  trainer.start(std::chrono::minutes(10));
  EXPECT_TRUE(trainer.running());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto t0 = std::chrono::steady_clock::now();
  trainer.stop();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(trainer.running());
  // Far below the 10-minute period; generous bound for loaded CI machines.
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 5.0);
}

TEST(SnapshotTrainerTest, RefusesToTrainOnTooFewRows) {
  DecisionService service(small_service(),
                          PolicySnapshot::uniform(1, 3, 2));
  Decider& d = service.add_decider();
  SnapshotTrainer trainer(service, {.min_rows = 100});
  const std::vector<double> x{0.5, 0.5};
  for (int i = 0; i < 10; ++i) d.decide_logged(x, 1.0);
  trainer.collect();
  EXPECT_EQ(trainer.train_and_publish(), 0u);
  EXPECT_EQ(service.current_id(), 1u);
}

TEST(SnapshotTrainerTest, IngestRejectsWhatTheRetrainWouldReject) {
  // Folded, such a record would make every retrain throw (action = K,
  // p = 0) or publish NaN weights (p = NaN) for as long as it stayed in the
  // window.
  DecisionService service(small_service(),
                          PolicySnapshot::uniform(1, 3, 2));
  Decider& d = service.add_decider();
  SnapshotTrainer trainer(service, {.min_rows = 4});
  DecisionRecord rec;
  rec.reward = 0.5;
  rec.propensity = 1.0 / 3.0;
  rec.dim = 2;
  rec.context[0] = 0.1;
  rec.context[1] = 0.7;
  for (std::uint32_t a = 0; a < 3; ++a) {
    rec.action = a;
    EXPECT_TRUE(trainer.ingest(rec));
    EXPECT_TRUE(trainer.ingest(rec));
  }
  DecisionRecord bad_action = rec;
  bad_action.action = 3;  // == num_actions
  EXPECT_FALSE(trainer.ingest(bad_action));
  DecisionRecord zero_p = rec;
  zero_p.propensity = 0.0;
  EXPECT_FALSE(trainer.ingest(zero_p));
  DecisionRecord nan_p = rec;
  nan_p.propensity = std::nan("");
  EXPECT_FALSE(trainer.ingest(nan_p));
  EXPECT_EQ(trainer.invalid_dropped(), 3u);
  EXPECT_EQ(trainer.buffered_rows(), 6u);

  EXPECT_EQ(trainer.train_and_publish(), 2u);
  const SnapshotRef ref = d.snapshot();
  for (const double w : ref->weights()) EXPECT_TRUE(std::isfinite(w));
}

TEST(SnapshotTrainerTest, WorkerCountsAFailedRoundAndKeepsRunning) {
  // An exception leaving the start() thread would call std::terminate.
  // Here every publish throws: epsilon 2 is not a valid snapshot epsilon.
  DecisionService service(small_service(),
                          PolicySnapshot::uniform(1, 3, 2));
  Decider& d = service.add_decider();
  SnapshotTrainer trainer(service, {.epsilon = 2.0, .min_rows = 4});
  const std::vector<double> x{0.5, 0.5};
  for (int i = 0; i < 8; ++i) d.decide_logged(x, 1.0);
  trainer.start(std::chrono::milliseconds(1));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (trainer.round_failures() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  trainer.stop();
  EXPECT_GE(trainer.round_failures(), 2u);
  EXPECT_EQ(trainer.collected(), 8u);
  EXPECT_EQ(trainer.published(), 0u);
  EXPECT_EQ(service.current_id(), 1u);
}

// ---- The trainer's arithmetic contract ------------------------------------

constexpr std::size_t kFitActions = 4;
constexpr std::size_t kFitDim = 5;

DecisionService::Options fit_service() {
  return {.num_actions = kFitActions, .dim = kFitDim, .seed = 5};
}

/// A seeded stream of labeled tuples: propensities in [0.05, 1] (importance
/// weights up to 20) and a noisy linear reward.
class RecordStream {
 public:
  explicit RecordStream(std::uint64_t seed) : rng_(seed) {}

  DecisionRecord next() {
    DecisionRecord rec;
    rec.action = static_cast<std::uint32_t>(rng_.uniform_index(kFitActions));
    rec.propensity = rng_.uniform(0.05, 1.0);
    rec.dim = kFitDim;
    for (std::size_t d = 0; d < kFitDim; ++d) {
      rec.context[d] = rng_.uniform(-1, 1);
    }
    rec.reward = 0.2 * (rec.action + 1) * rec.context[0] -
                 0.3 * rec.context[1] + 0.1 * rng_.uniform();
    return rec;
  }

 private:
  util::Rng rng_;
};

/// The bit patterns of the weights the service serves now.
std::vector<std::uint64_t> served_weight_bits(Decider& d) {
  const SnapshotRef ref = d.snapshot();
  std::vector<std::uint64_t> bits;
  for (const double w : ref->weights()) {
    bits.push_back(std::bit_cast<std::uint64_t>(w));
  }
  return bits;
}

TEST(SnapshotTrainerTest, RetrainDoesNotDependOnWhereIngestSplits) {
  constexpr std::size_t kRows = 9000;
  DecisionService one_run(fit_service(),
                          PolicySnapshot::uniform(1, kFitActions, kFitDim));
  Decider& one_decider = one_run.add_decider();
  SnapshotTrainer whole(one_run, {.window_rows = 2000});
  RecordStream stream(11);
  for (std::size_t i = 0; i < kRows; ++i) whole.ingest(stream.next());
  ASSERT_NE(whole.train_and_publish(), 0u);

  DecisionService split_run(fit_service(),
                            PolicySnapshot::uniform(1, kFitActions, kFitDim));
  Decider& split_decider = split_run.add_decider();
  SnapshotTrainer split(split_run, {.window_rows = 2000});
  RecordStream again(11);
  util::Rng cuts(12);
  for (std::size_t i = 0; i < kRows; ++i) {
    split.ingest(again.next());
    if (cuts.bernoulli(0.002)) split.train_and_publish();
  }
  ASSERT_GT(split.published(), 3u);
  ASSERT_NE(split.train_and_publish(), 0u);
  EXPECT_EQ(served_weight_bits(one_decider), served_weight_bits(split_decider));
}

TEST(SnapshotTrainerTest, RetrainIsTheOldestFirstMergeOfItsChunks) {
  // window_rows 1000: chunks of C = ceil(1000 / 64) = 16 rows, and a full
  // window is the newest ceil(1000 / 16) = 63 closed chunks plus the open
  // one. 5008 rows fill the open chunk exactly; 5007 leave it one short.
  constexpr std::size_t kWindow = 1000;
  constexpr std::size_t kChunk = 16;
  constexpr std::size_t kClosedChunks = 63;
  for (const std::size_t rows : {std::size_t{5007}, std::size_t{5008}}) {
    DecisionService service(fit_service(),
                            PolicySnapshot::uniform(1, kFitActions, kFitDim));
    Decider& d = service.add_decider();
    SnapshotTrainer trainer(service, {.epsilon = 0.2, .window_rows = kWindow});
    RecordStream stream(21);
    for (std::size_t i = 0; i < rows; ++i) trainer.ingest(stream.next());
    const std::uint64_t id = trainer.train_and_publish();
    ASSERT_NE(id, 0u);

    const std::size_t first = (rows / kChunk - kClosedChunks) * kChunk;
    EXPECT_EQ(trainer.buffered_rows(), rows - first);
    core::RidgeRewardModel merged(kFitActions, kFitDim, 1.0);
    core::RidgeRewardModel chunk(kFitActions, kFitDim, 1.0);
    RecordStream replay(21);
    for (std::size_t i = 0; i < rows; ++i) {
      const DecisionRecord rec = replay.next();
      if (i < first) continue;
      chunk.observe(std::span<const double>(rec.context, rec.dim),
                    rec.action, rec.reward, 1.0 / rec.propensity);
      if ((i - first + 1) % kChunk == 0) {
        merged.merge_observations(chunk);
        chunk.clear_observations();
      }
    }
    merged.merge_observations(chunk);  // the open chunk, even when empty
    merged.fit();
    const auto expected =
        PolicySnapshot::from_model(id, merged, kFitDim, 0.2);
    const SnapshotRef served = d.snapshot();
    EXPECT_EQ(served->serialize(), expected->serialize()) << "rows=" << rows;
  }
}

TEST(SnapshotTrainerTest, RetrainAgreesWithFitRidgeOnTheWindow) {
  // The chunked sums add the same terms as fit_ridge in another order, so
  // the coefficients agree to rounding.
  for (const std::size_t window : {std::size_t{50000}, std::size_t{0}}) {
    const std::size_t rows = window == 0 ? 100000 : 3 * window + 123;
    DecisionService service(fit_service(),
                            PolicySnapshot::uniform(1, kFitActions, kFitDim));
    Decider& d = service.add_decider();
    SnapshotTrainer trainer(service, {.window_rows = window});
    RecordStream stream(31);
    for (std::size_t i = 0; i < rows; ++i) trainer.ingest(stream.next());
    ASSERT_NE(trainer.train_and_publish(), 0u);
    const std::size_t kept = trainer.buffered_rows();

    core::ExplorationDataset data(kFitActions, {0, 1});
    data.reserve(kept);
    RecordStream replay(31);
    for (std::size_t i = 0; i < rows; ++i) {
      const DecisionRecord rec = replay.next();
      if (i < rows - kept) continue;
      data.add({core::FeatureVector(std::vector<double>(
                    rec.context, rec.context + rec.dim)),
                rec.action, rec.reward, rec.propensity});
    }
    const core::RidgeRewardModel reference = core::fit_ridge(data, 1.0, true);
    const std::span<const double> want = reference.coefficients();
    const SnapshotRef served = d.snapshot();
    const std::span<const double> got = served->weights();
    ASSERT_EQ(got.size(), want.size());
    double max_abs = 0, max_diff = 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
      max_abs = std::max(max_abs, std::abs(want[i]));
      max_diff = std::max(max_diff, std::abs(got[i] - want[i]));
    }
    EXPECT_GT(max_abs, 0.1);
    EXPECT_LE(max_diff, 1e-9 * max_abs) << "window_rows=" << window;
  }
}

TEST(SnapshotTrainerTest, WindowHoldsBetweenWAndWPlusTwoChunks) {
  for (const std::size_t window :
       {std::size_t{1}, std::size_t{50}, std::size_t{64}, std::size_t{65},
        std::size_t{1000}, std::size_t{50000}}) {
    const std::size_t chunk = (window + 63) / 64;
    DecisionService service(fit_service(),
                            PolicySnapshot::uniform(1, kFitActions, kFitDim));
    SnapshotTrainer trainer(service, {.window_rows = window});
    RecordStream stream(41);
    for (std::size_t i = 0; i < 3 * window + 2 * chunk; ++i) {
      trainer.ingest(stream.next());
      const std::size_t rows = trainer.buffered_rows();
      if (i + 1 < window) {
        ASSERT_EQ(rows, i + 1) << "window_rows=" << window;
      } else if (i + 1 >= 2 * window) {
        ASSERT_GE(rows, window);
        ASSERT_LT(rows, window + 2 * chunk) << "window_rows=" << window;
      }
    }
  }
}

TEST(AllocGateTest, PositiveControlDetectsAllocation) {
  const AllocGate gate;
  auto* p = new int(42);
  EXPECT_GE(gate.delta(), 1u);
  delete p;
}

TEST(AllocGateTest, DecidePathIsZeroAllocation) {
  util::Rng rng(31);
  const auto weights = random_weights(3, 2, rng);
  DecisionService service(small_service(1 << 8),
                          PolicySnapshot::from_weights(1, weights, 0.1));
  Decider& d = service.add_decider();
  double ctx[2];
  // Warm up (first decisions may touch lazily initialized state).
  for (int i = 0; i < 100; ++i) {
    ctx[0] = rng.uniform();
    ctx[1] = rng.uniform();
    d.decide_logged(std::span<const double>(ctx, 2), 0.5);
  }
  service.drain([](const DecisionRecord&) {});
  const AllocGate gate;
  for (int i = 0; i < 10000; ++i) {
    ctx[0] = rng.uniform();
    ctx[1] = rng.uniform();
    d.decide_logged(std::span<const double>(ctx, 2), 0.5);
  }
  EXPECT_EQ(gate.delta(), 0u) << "decide path allocated";
}

TEST(AllocGateTest, WideDecidePathIsZeroAllocation) {
  // 40 actions: the greedy choice scores three chunks of 16 lanes.
  util::Rng rng(33);
  const auto weights = random_weights(40, 8, rng);
  DecisionService service(
      {.num_actions = 40, .dim = 8, .log_capacity = 1 << 8, .seed = 77},
      PolicySnapshot::from_weights(1, weights, 0.1));
  Decider& d = service.add_decider();
  double ctx[8];
  auto decide_once = [&] {
    for (double& v : ctx) v = rng.uniform(-1, 1);
    d.decide_logged(std::span<const double>(ctx, 8), 0.5);
  };
  for (int i = 0; i < 100; ++i) decide_once();
  service.drain([](const DecisionRecord&) {});
  const AllocGate gate;
  for (int i = 0; i < 10000; ++i) decide_once();  // a full ring drops, counted
  EXPECT_EQ(gate.delta(), 0u) << "decide path allocated at 40 actions";
}

TEST(AllocGateTest, FullWindowIngestIsZeroAllocation) {
  // Once the window is full, the chunk that leaves it is cleared and reused:
  // ingest folds each tuple in place. With window_rows 0 the one
  // accumulator never closes.
  constexpr std::size_t kChunk = 50;  // ceil(3200 / 64)
  for (const std::size_t window : {std::size_t{3200}, std::size_t{0}}) {
    DecisionService service(fit_service(),
                            PolicySnapshot::uniform(1, kFitActions, kFitDim));
    SnapshotTrainer trainer(service, {.window_rows = window});
    RecordStream stream(51);
    for (std::size_t i = 0; i < 2 * 3200; ++i) trainer.ingest(stream.next());
    const AllocGate gate;
    std::size_t folded = 0;
    for (std::size_t i = 0; i < 10 * kChunk; ++i) {
      folded += trainer.ingest(stream.next()) ? 1 : 0;
    }
    EXPECT_EQ(gate.delta(), 0u) << "ingest allocated, window_rows=" << window;
    EXPECT_EQ(folded, 10 * kChunk);
  }
}

TEST(AllocGateTest, CollectDoesNotScaleWithRecords) {
  // collect() folds each record from its ring slot: what it allocates per
  // call (the drain's copy of the decider list) must not grow with the
  // records drained, as a buffer of drained records would.
  constexpr std::size_t kRecords = 1000;
  DecisionService service(
      {.num_actions = kFitActions, .dim = kFitDim, .log_capacity = 4096,
       .seed = 5},
      PolicySnapshot::uniform(1, kFitActions, kFitDim));
  Decider& d = service.add_decider();
  SnapshotTrainer trainer(service, {.window_rows = 3200});
  RecordStream stream(52);
  for (std::size_t i = 0; i < 2 * 3200; ++i) trainer.ingest(stream.next());
  util::Rng rng(53);
  auto collect_bytes = [&](std::size_t records) {
    double ctx[kFitDim];
    for (std::size_t i = 0; i < records; ++i) {
      for (double& v : ctx) v = rng.uniform(-1, 1);
      d.decide_logged(std::span<const double>(ctx, kFitDim), rng.uniform());
    }
    const std::uint64_t before = thread_allocation_bytes();
    EXPECT_EQ(trainer.collect(), records);
    return thread_allocation_bytes() - before;
  };
  const std::uint64_t small = collect_bytes(kRecords);
  const std::uint64_t large = collect_bytes(4 * kRecords);
  EXPECT_EQ(small, large);
  EXPECT_LT(large, 1024u);
  EXPECT_EQ(d.dropped(), 0u);
}

}  // namespace
}  // namespace harvest::serve
