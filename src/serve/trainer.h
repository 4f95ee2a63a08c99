// The cold half of the serving loop: drain logged decision tuples, retrain,
// publish a fresh PolicySnapshot — without ever stalling a decider.
//
// The SnapshotTrainer closes the paper's harvest loop online: the decision
// stream the service logs is exactly the ⟨x, a, r, p⟩ exploration data of
// §2 (propensities are exact by construction), so retraining is the same
// importance-weighted ridge fit the offline pipeline uses
// (core::train_cb_policy_with_model), and publishing is one atomic swap.
// Because the fit runs on the deterministic par:: machinery, the snapshot
// bytes are identical at any trainer thread count — the determinism suite
// compares serialize() at 1 vs 8 threads.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/train/trainer.h"
#include "core/types.h"
#include "serve/service.h"
#include "serve/snapshot.h"

namespace harvest::serve {

class SnapshotStore;  // persist.h; optional durable snapshot directory

class SnapshotTrainer {
 public:
  struct Options {
    /// Exploration mass of every published snapshot. Kept above zero so the
    /// served stream stays harvestable (min propensity epsilon/|A|).
    double epsilon = 0.1;
    core::TrainConfig train = {};
    /// train_and_publish() refuses to retrain on fewer labeled tuples than
    /// this (a fit on a handful of rows would publish noise).
    std::size_t min_rows = 64;
    core::RewardRange reward_range = {};
    /// When positive, only the most recent `window_rows` labeled tuples are
    /// kept (sliding window over the decision stream); 0 keeps everything.
    std::size_t window_rows = 0;
    /// When set, every successfully published snapshot is also persisted to
    /// the store (serialized under the publish lock, written outside it), so
    /// a restarted service can warm-start from the last published policy. A
    /// persistence failure is counted and logged, never fatal — the
    /// in-memory publish already happened.
    SnapshotStore* store = nullptr;
  };

  SnapshotTrainer(DecisionService& service, Options options);
  ~SnapshotTrainer();

  SnapshotTrainer(const SnapshotTrainer&) = delete;
  SnapshotTrainer& operator=(const SnapshotTrainer&) = delete;

  /// Drains the service rings into the trainer's buffer via ingest().
  /// Returns records drained this call.
  std::size_t collect();

  /// Validates and buffers one drained record: reward-less tuples (NaN —
  /// decide() with no log_reward()) and records whose `dim` disagrees with
  /// the service geometry are counted and skipped, never trained on (a
  /// truncated context would silently corrupt the ridge fit). Returns true
  /// when the record was buffered. Thread-safe; public so tests can feed
  /// records directly.
  bool ingest(const DecisionRecord& rec);

  /// Retrains on the buffered tuples and publishes the result under the
  /// service's race-free id assignment (DecisionService::publish_with), so
  /// concurrent publishers can never mint duplicate snapshot ids. Returns
  /// the assigned id read back from the publish, or 0 without publishing
  /// when fewer than min_rows labeled tuples are buffered. When a store is
  /// configured, the published snapshot is persisted as well.
  std::uint64_t train_and_publish();

  /// The retrain step alone: importance-weighted ridge on `data`, copied
  /// into a snapshot with the trainer's epsilon. Exposed so drivers can
  /// retrain from an HLOG corpus they scavenged themselves (the offline
  /// path) and so the determinism suite can diff snapshot bytes. Throws
  /// std::invalid_argument on an empty dataset.
  std::unique_ptr<const PolicySnapshot> train_on(
      const core::ExplorationDataset& data, std::uint64_t id) const;

  /// Starts the background retrain thread: every `period` it collects,
  /// retrains when enough labeled data arrived, publishes, and reclaims.
  /// Deciders are never blocked; they just keep reading whichever snapshot
  /// is current. stop() joins the thread (also called by the destructor).
  void start(std::chrono::milliseconds period);
  /// Returns promptly: the worker waits on a condition variable, so stop()
  /// interrupts an in-progress sleep instead of blocking for up to a full
  /// period. A retrain already underway still runs to completion.
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  std::size_t buffered_rows() const;
  std::uint64_t collected() const {
    return collected_.load(std::memory_order_relaxed);
  }
  /// Tuples dropped because no reward was ever reported for them.
  std::uint64_t unlabeled_dropped() const {
    return unlabeled_.load(std::memory_order_relaxed);
  }
  /// Tuples dropped because rec.dim disagreed with the service dim.
  std::uint64_t dim_mismatch_dropped() const {
    return dim_mismatch_.load(std::memory_order_relaxed);
  }
  std::uint64_t published() const {
    return published_.load(std::memory_order_relaxed);
  }
  /// Snapshots persisted to the store / persistence attempts that failed.
  std::uint64_t persisted() const {
    return persisted_.load(std::memory_order_relaxed);
  }
  std::uint64_t persist_failures() const {
    return persist_failures_.load(std::memory_order_relaxed);
  }

 private:
  DecisionService& service_;
  Options options_;

  mutable std::mutex mu_;
  std::vector<core::ExplorationPoint> buffer_;  // guarded by mu_

  std::atomic<std::uint64_t> collected_{0};
  std::atomic<std::uint64_t> unlabeled_{0};
  std::atomic<std::uint64_t> dim_mismatch_{0};
  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> persisted_{0};
  std::atomic<std::uint64_t> persist_failures_{0};

  std::thread worker_;
  std::atomic<bool> running_{false};
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;  // guarded by stop_mu_
};

}  // namespace harvest::serve
