// Concurrency torture for the snapshot swap: N decider threads hammering
// decide() while a publisher swaps snapshots at high frequency and a
// drainer collects the decision stream. Run under the ci.sh TSAN sub-build.
//
// Invariants proved here:
//  - no torn reads: every hazard-acquired snapshot passes verify_integrity
//    (construction-time checksum over all weight bytes + liveness canary);
//  - provenance: every logged tuple's snapshot_id names a snapshot that was
//    actually published, and per decider the ids are monotone (a decider
//    can never observe an older snapshot after a newer one);
//  - safe reclamation: a snapshot is never freed while a reader holds it
//    (the canary check would fail), and after quiescence every retired
//    snapshot is reclaimed — the alive count returns to exactly one;
//  - exact accounting under concurrency: drained + dropped == decided;
//  - the SnapshotTrainer's background thread collects, retrains and
//    publishes while deciders serve and another thread ingests directly.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "serve/service.h"
#include "serve/snapshot.h"
#include "serve/trainer.h"
#include "util/rng.h"

namespace harvest::serve {
namespace {

constexpr std::size_t kActions = 3;
constexpr std::size_t kDim = 4;

std::unique_ptr<const PolicySnapshot> make_snapshot(std::uint64_t id,
                                                    std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<double>> w(kActions,
                                     std::vector<double>(kDim + 1));
  for (auto& row : w) {
    for (auto& v : row) v = rng.uniform(-1, 1);
  }
  return PolicySnapshot::from_weights(id, w, 0.1);
}

TEST(ServeStressTest, SwapTortureNoTornReadsNoUseAfterFree) {
  const std::uint64_t alive_before = PolicySnapshot::alive_count();
  constexpr std::size_t kDeciders = 4;
  constexpr std::size_t kDecisionsPerThread = 60000;

  DecisionService service(
      {.num_actions = kActions, .dim = kDim, .log_capacity = 1 << 14,
       .seed = 1234},
      make_snapshot(1, 1));
  std::vector<Decider*> deciders;
  for (std::size_t t = 0; t < kDeciders; ++t) {
    deciders.push_back(&service.add_decider());
  }

  std::atomic<bool> stop_publisher{false};
  std::atomic<std::uint64_t> integrity_failures{0};

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kDeciders; ++t) {
    threads.emplace_back([&, t] {
      Decider& d = *deciders[t];
      util::Rng ctx_rng(9000 + t);
      double ctx[kDim];
      std::uint64_t last_id = 0;
      for (std::size_t i = 0; i < kDecisionsPerThread; ++i) {
        for (std::size_t k = 0; k < kDim; ++k) ctx[k] = ctx_rng.uniform();
        const Decision dec =
            d.decide_logged(std::span<const double>(ctx, kDim), 0.5);
        // Monotone provenance: a decider never travels back in time.
        if (dec.snapshot_id < last_id) {
          integrity_failures.fetch_add(1, std::memory_order_relaxed);
        }
        last_id = dec.snapshot_id;
        if ((i & 0x3FF) == 0) {
          // Periodically hold the snapshot across publisher swaps and
          // verify it is neither torn nor freed.
          const SnapshotRef ref = d.snapshot();
          if (!ref->verify_integrity()) {
            integrity_failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  std::thread publisher([&] {
    std::uint64_t next_id = 2;
    while (!stop_publisher.load(std::memory_order_acquire)) {
      service.publish(make_snapshot(next_id, next_id));
      ++next_id;
      // No sleep: swap as fast as the deciders decide. publish() already
      // reclaims opportunistically.
    }
  });

  std::atomic<bool> stop_drainer{false};
  std::atomic<std::uint64_t> drained{0};
  std::atomic<std::uint64_t> bad_provenance{0};
  std::vector<std::uint64_t> last_seen(kDeciders, 0);
  std::thread drainer([&] {
    const auto check = [&](const DecisionRecord& rec) {
      drained.fetch_add(1, std::memory_order_relaxed);
      if (!service.was_published(rec.snapshot_id) ||
          rec.snapshot_id < last_seen[rec.decider]) {
        bad_provenance.fetch_add(1, std::memory_order_relaxed);
      }
      last_seen[rec.decider] = rec.snapshot_id;
    };
    while (!stop_drainer.load(std::memory_order_acquire)) {
      service.drain(check);
      std::this_thread::yield();
    }
    service.drain(check);  // final sweep after deciders stopped
  });

  for (auto& t : threads) t.join();
  stop_publisher.store(true, std::memory_order_release);
  publisher.join();
  stop_drainer.store(true, std::memory_order_release);
  drainer.join();

  EXPECT_EQ(integrity_failures.load(), 0u);
  EXPECT_EQ(bad_provenance.load(), 0u);
  EXPECT_GT(service.swaps(), 0u);

  // Exact accounting: every decision either drained or counted as dropped.
  const std::uint64_t decided = service.decided_total();
  EXPECT_EQ(decided, kDeciders * kDecisionsPerThread);
  EXPECT_EQ(drained.load() + service.dropped_total(), decided);

  // Quiesced: every retired snapshot must now be reclaimable, leaving
  // exactly the current snapshot alive.
  service.reclaim_all();
  EXPECT_EQ(service.retired_count(), 0u);
  EXPECT_EQ(PolicySnapshot::alive_count(), alive_before + 1);
}

TEST(ServeStressTest, ConcurrentDrainersNeverDoubleCount) {
  constexpr std::size_t kDeciders = 2;
  constexpr std::size_t kDecisionsPerThread = 40000;
  DecisionService service(
      {.num_actions = kActions, .dim = kDim, .log_capacity = 1 << 12,
       .seed = 77},
      make_snapshot(1, 5));
  std::vector<Decider*> deciders;
  for (std::size_t t = 0; t < kDeciders; ++t) {
    deciders.push_back(&service.add_decider());
  }

  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kDeciders; ++t) {
    workers.emplace_back([&, t] {
      util::Rng ctx_rng(100 + t);
      double ctx[kDim];
      for (std::size_t i = 0; i < kDecisionsPerThread; ++i) {
        for (std::size_t k = 0; k < kDim; ++k) ctx[k] = ctx_rng.uniform();
        deciders[t]->decide_logged(std::span<const double>(ctx, kDim), 1.0);
      }
    });
  }

  // Two drainers race over the same rings; the per-ring consumer mutex must
  // serialize them so no record is seen twice or skipped.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> drained{0};
  std::vector<std::thread> drainers;
  for (int i = 0; i < 2; ++i) {
    drainers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const auto stats = service.drain([](const DecisionRecord&) {});
        drained.fetch_add(stats.drained, std::memory_order_relaxed);
      }
    });
  }
  for (auto& w : workers) w.join();
  stop.store(true, std::memory_order_release);
  for (auto& d : drainers) d.join();
  const auto final_stats = service.drain([](const DecisionRecord&) {});
  drained.fetch_add(final_stats.drained, std::memory_order_relaxed);

  EXPECT_EQ(drained.load() + service.dropped_total(),
            kDeciders * kDecisionsPerThread);
}

TEST(ServeStressTest, PublishersAndReclaimersRace) {
  const std::uint64_t alive_before = PolicySnapshot::alive_count();
  DecisionService service(
      {.num_actions = kActions, .dim = kDim, .log_capacity = 1 << 10,
       .seed = 3},
      make_snapshot(1, 9));
  Decider& decider = service.add_decider();

  std::atomic<bool> stop{false};
  std::thread worker([&] {
    util::Rng ctx_rng(55);
    double ctx[kDim];
    while (!stop.load(std::memory_order_acquire)) {
      for (std::size_t k = 0; k < kDim; ++k) ctx[k] = ctx_rng.uniform();
      decider.decide_logged(std::span<const double>(ctx, kDim), 0.0);
    }
  });

  std::atomic<std::uint64_t> next_id{2};
  std::vector<std::thread> publishers;
  for (int p = 0; p < 2; ++p) {
    publishers.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        const std::uint64_t id =
            next_id.fetch_add(1, std::memory_order_relaxed);
        service.publish(make_snapshot(id, id));
      }
    });
  }
  std::thread reclaimer([&] {
    for (int i = 0; i < 2000; ++i) {
      service.try_reclaim();
      std::this_thread::yield();
    }
  });
  for (auto& p : publishers) p.join();
  reclaimer.join();
  stop.store(true, std::memory_order_release);
  worker.join();
  service.drain([](const DecisionRecord&) {});

  EXPECT_EQ(service.swaps(), 1000u);
  service.reclaim_all();
  EXPECT_EQ(PolicySnapshot::alive_count(), alive_before + 1);
}

TEST(ServeStressTest, TrainerRetrainsWhileDecidersServe) {
  const std::uint64_t alive_before = PolicySnapshot::alive_count();
  constexpr std::size_t kDeciders = 2;
  constexpr std::size_t kMinDecisions = 20000;
  constexpr std::uint64_t kMinPublishes = 5;
  DecisionService service(
      {.num_actions = kActions, .dim = kDim, .log_capacity = 1 << 14,
       .seed = 61},
      make_snapshot(1, 13));
  std::vector<Decider*> deciders;
  for (std::size_t t = 0; t < kDeciders; ++t) {
    deciders.push_back(&service.add_decider());
  }
  SnapshotTrainer trainer(service, {.min_rows = 64, .window_rows = 4096});
  trainer.start(std::chrono::milliseconds(1));

  // Each decider keeps serving until the trainer has published a few times,
  // so retrains overlap deciding; the deadline ends a run whose trainer is
  // stuck.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::atomic<std::uint64_t> went_back{0};
  std::vector<std::vector<std::uint64_t>> served(kDeciders);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kDeciders; ++t) {
    threads.emplace_back([&, t] {
      Decider& d = *deciders[t];
      util::Rng ctx_rng(700 + t);
      double ctx[kDim];
      std::uint64_t last_id = 0;
      for (std::size_t i = 0;
           i < kMinDecisions || (trainer.published() < kMinPublishes &&
                                 std::chrono::steady_clock::now() < deadline);
           ++i) {
        for (std::size_t k = 0; k < kDim; ++k) ctx[k] = ctx_rng.uniform();
        const Decision dec = d.decide(std::span<const double>(ctx, kDim));
        d.log_reward(dec.action == 1 ? 0.8 : 0.2);
        if (dec.snapshot_id < last_id) {
          went_back.fetch_add(1, std::memory_order_relaxed);
        }
        if (dec.snapshot_id != last_id) served[t].push_back(dec.snapshot_id);
        last_id = dec.snapshot_id;
      }
    });
  }
  // A third thread feeds the trainer directly and reads the window size,
  // which must stay within its bounds (window 4096, chunks of 64 rows).
  std::atomic<bool> deciders_done{false};
  std::atomic<std::uint64_t> ingested{0};
  std::atomic<std::uint64_t> bad_window{0};
  std::thread ingester([&] {
    util::Rng rng(800);
    DecisionRecord rec;
    rec.dim = kDim;
    while (!deciders_done.load(std::memory_order_acquire)) {
      rec.action = static_cast<std::uint32_t>(rng.uniform_index(kActions));
      rec.propensity = 1.0 / kActions;
      for (std::size_t k = 0; k < kDim; ++k) rec.context[k] = rng.uniform();
      rec.reward = rng.uniform();
      if (trainer.ingest(rec)) ingested.fetch_add(1, std::memory_order_relaxed);
      const std::size_t rows = trainer.buffered_rows();
      if (rows == 0 || rows >= 4096 + 2 * 64) {
        bad_window.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  for (auto& t : threads) t.join();
  deciders_done.store(true, std::memory_order_release);
  ingester.join();
  trainer.stop();
  trainer.collect();  // what the deciders logged after the last round

  EXPECT_EQ(went_back.load(), 0u);
  EXPECT_GT(ingested.load(), 0u);
  EXPECT_EQ(bad_window.load(), 0u);
  EXPECT_EQ(trainer.round_failures(), 0u);
  EXPECT_GE(trainer.published(), kMinPublishes);
  // Only the trainer publishes, and the service mints ids in order.
  EXPECT_EQ(service.current_id(), 1 + trainer.published());
  std::uint64_t pushed = 0;
  for (std::size_t t = 0; t < kDeciders; ++t) {
    const Decider& d = *deciders[t];
    EXPECT_EQ(d.logged() + d.dropped(), d.decided());
    pushed += d.logged();
    for (const std::uint64_t id : served[t]) {
      EXPECT_TRUE(service.was_published(id)) << "served " << id;
    }
  }
  EXPECT_EQ(trainer.collected(), pushed);
  EXPECT_EQ(trainer.unlabeled_dropped(), 0u);

  service.reclaim_all();
  EXPECT_EQ(service.retired_count(), 0u);
  EXPECT_EQ(PolicySnapshot::alive_count(), alive_before + 1);
}

}  // namespace
}  // namespace harvest::serve
