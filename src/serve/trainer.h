// The cold half of the serving loop: drain logged decision tuples, retrain,
// publish a fresh PolicySnapshot — without ever stalling a decider.
//
// The SnapshotTrainer closes the paper's harvest loop online: the decision
// stream the service logs is exactly the ⟨x, a, r, p⟩ exploration data of
// §2 (propensities are exact by construction), so retraining is the same
// importance-weighted ridge regression the offline pipeline fits
// (core::fit_ridge), and publishing is one atomic swap.
//
// The trainer keeps no rows. ingest() folds each labeled tuple once into the
// ridge sufficient statistics (per action X^T W X, X^T W y and the weight
// sum) of the open chunk of C rows; the window is a ring of such chunks. A
// retrain merges at most 65 chunks, oldest first, and runs one Cholesky
// solve per action, so its cost does not grow with the window. No par:: fit
// runs online: the published bytes depend only on the sequence of ingested
// tuples, not on how collect() calls split it and not on any thread count.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/reward_model.h"
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
    /// Read by nothing: the online fit needs no dataset. Kept so that
    /// callers which set it still build.
    core::RewardRange reward_range = {};
    /// When positive, the fit covers a sliding window of about the most
    /// recent `window_rows` labeled tuples. They are folded in chunks of
    /// C = ceil(window_rows / 64) rows; a chunk closes after exactly C rows,
    /// and the window is the newest ceil(window_rows / C) closed chunks plus
    /// the open one, so once full it holds at least window_rows and fewer
    /// than window_rows + 2C tuples. 0 folds every tuple into one
    /// accumulator that never closes: the fit covers everything ingested,
    /// at constant memory.
    std::size_t window_rows = 0;
    /// When set, every successfully published snapshot is also persisted to
    /// the store (serialized under the publish lock, written outside it), so
    /// a restarted service can warm-start from the last published policy. A
    /// persistence failure is counted and logged, never fatal — the
    /// in-memory publish already happened.
    SnapshotStore* store = nullptr;
  };

  /// Throws std::invalid_argument unless options.train.ridge_lambda > 0.
  SnapshotTrainer(DecisionService& service, Options options);
  ~SnapshotTrainer();

  SnapshotTrainer(const SnapshotTrainer&) = delete;
  SnapshotTrainer& operator=(const SnapshotTrainer&) = delete;

  /// Drains the service rings into the window, folding each record as
  /// ingest() does, straight from its ring slot. Takes the trainer's lock
  /// once per call, so the lock order is the trainer's lock, then each
  /// decider's ring lock. No code calls ingest() from a drain callback,
  /// which would take them in the reverse order, so no cycle exists.
  /// Allocates per call, never per record. Returns records drained this
  /// call.
  std::size_t collect();

  /// Validates one drained record and folds it into the open chunk. Each
  /// failing record is counted and skipped, never trained on:
  ///  - no reward (NaN: decide() with no log_reward()): unlabeled_dropped();
  ///  - `dim` not the service dim (a truncated context would silently
  ///    corrupt the fit): dim_mismatch_dropped();
  ///  - action out of range, or propensity not in (0, 1] (NaN included),
  ///    which the importance weight 1/p cannot use: invalid_dropped().
  /// Returns true when the record was folded. Allocates nothing once the
  /// window is full. Thread-safe; public so tests can feed records
  /// directly. Must not be called from a DecisionService::drain callback
  /// (see collect()).
  bool ingest(const DecisionRecord& rec);

  /// Retrains on the window — merges its chunks oldest first into a fresh
  /// model and solves — and publishes the result under the service's
  /// race-free id assignment (DecisionService::publish_with), so concurrent
  /// publishers can never mint duplicate snapshot ids. Returns the assigned
  /// id read back from the publish, or 0 without publishing when
  /// buffered_rows() is below min_rows. When a store is configured, the
  /// published snapshot is persisted as well.
  std::uint64_t train_and_publish();

  /// The offline retrain: core::fit_ridge on `data` (sharded over the
  /// par:: pool, bytes identical at any thread count), copied into a
  /// snapshot with the trainer's epsilon. Touches no trainer state; tools
  /// call it to retrain from an HLOG corpus they scavenged themselves.
  /// Throws std::invalid_argument on an empty dataset.
  std::unique_ptr<const PolicySnapshot> train_on(
      const core::ExplorationDataset& data, std::uint64_t id) const;

  /// Starts the background retrain thread: every `period` it collects,
  /// retrains when enough labeled data arrived, publishes, and reclaims.
  /// Deciders are never blocked; they just keep reading whichever snapshot
  /// is current. A round that throws is printed to stderr and counted
  /// (round_failures()), and the next period tries again. stop() joins the
  /// thread (also called by the destructor).
  void start(std::chrono::milliseconds period);
  /// Returns promptly: the worker waits on a condition variable, so stop()
  /// interrupts an in-progress sleep instead of blocking for up to a full
  /// period. A retrain already underway still runs to completion.
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Tuples in the window: all tuples ingested when window_rows is 0. The
  /// next retrain fits exactly these, and min_rows is compared against it.
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
  /// Tuples dropped because the action or the propensity was invalid.
  std::uint64_t invalid_dropped() const {
    return invalid_.load(std::memory_order_relaxed);
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
  /// Rounds of the start() thread that ended in an exception.
  std::uint64_t round_failures() const {
    return round_failures_.load(std::memory_order_relaxed);
  }

 private:
  core::RidgeRewardModel empty_model() const;
  bool ingest_locked(const DecisionRecord& rec);  // ingest() under mu_
  std::size_t buffered_rows_locked() const;

  DecisionService& service_;
  Options options_;
  std::size_t chunk_rows_;  // C; 0 when window_rows is 0 (never closes)
  std::size_t max_chunks_;  // closed chunks in a full window, plus the open

  mutable std::mutex mu_;
  // The window's chunk statistics as a ring: chunks_[head_] is the oldest
  // and chunks_[open_], the one just before it, the open one, which holds
  // open_rows_ tuples.
  std::vector<core::RidgeRewardModel> chunks_;  // guarded by mu_
  std::size_t head_ = 0;                        // guarded by mu_
  std::size_t open_ = 0;                        // guarded by mu_
  std::size_t open_rows_ = 0;                   // guarded by mu_

  std::atomic<std::uint64_t> collected_{0};
  std::atomic<std::uint64_t> unlabeled_{0};
  std::atomic<std::uint64_t> dim_mismatch_{0};
  std::atomic<std::uint64_t> invalid_{0};
  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> persisted_{0};
  std::atomic<std::uint64_t> persist_failures_{0};
  std::atomic<std::uint64_t> round_failures_{0};

  std::thread worker_;
  std::atomic<bool> running_{false};
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;  // guarded by stop_mu_
};

}  // namespace harvest::serve
