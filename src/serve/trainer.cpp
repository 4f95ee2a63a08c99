#include "serve/trainer.h"

#include <cmath>
#include <cstdio>
#include <span>
#include <stdexcept>
#include <string>

#include "core/reward_model.h"
#include "serve/persist.h"

namespace harvest::serve {

namespace {

// A full window holds at most this many closed chunks, the shard cap of
// par::ShardPlan::fixed: a retrain merges at most one block more than
// fit_ridge does.
constexpr std::size_t kWindowChunks = 64;

std::size_t ceil_div(std::size_t n, std::size_t d) { return (n + d - 1) / d; }

}  // namespace

SnapshotTrainer::SnapshotTrainer(DecisionService& service, Options options)
    : service_(service),
      options_(options),
      chunk_rows_(ceil_div(options.window_rows, kWindowChunks)),
      max_chunks_(chunk_rows_ == 0
                      ? 1
                      : ceil_div(options.window_rows, chunk_rows_) + 1) {
  chunks_.push_back(empty_model());
}

SnapshotTrainer::~SnapshotTrainer() { stop(); }

core::RidgeRewardModel SnapshotTrainer::empty_model() const {
  return core::RidgeRewardModel(service_.options().num_actions,
                                service_.options().dim,
                                options_.train.ridge_lambda);
}

bool SnapshotTrainer::ingest(const DecisionRecord& rec) {
  std::lock_guard<std::mutex> lock(mu_);
  return ingest_locked(rec);
}

bool SnapshotTrainer::ingest_locked(const DecisionRecord& rec) {
  if (std::isnan(rec.reward)) {
    unlabeled_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (rec.dim != service_.options().dim) {
    // A record whose context arity disagrees with the service geometry is
    // malformed; truncating or zero-padding it would train the ridge fit on
    // garbage features. Skip it and keep the count visible.
    dim_mismatch_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Written so that a NaN propensity fails too.
  if (rec.action >= service_.options().num_actions ||
      !(rec.propensity > 0.0 && rec.propensity <= 1.0)) {
    invalid_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const double weight =
      options_.train.importance_weighted ? 1.0 / rec.propensity : 1.0;
  chunks_[open_].observe(std::span<const double>(rec.context, rec.dim),
                         rec.action, rec.reward, weight);
  if (++open_rows_ == chunk_rows_) {
    open_rows_ = 0;
    if (chunks_.size() < max_chunks_) {
      chunks_.push_back(empty_model());
      open_ = chunks_.size() - 1;
    } else {
      // The oldest chunk leaves the window and is reused as the open one.
      open_ = head_;
      chunks_[open_].clear_observations();
      head_ = (head_ + 1) % chunks_.size();
    }
  }
  return true;
}

std::size_t SnapshotTrainer::collect() {
  // One lock for the whole drain, and each record folded straight from its
  // ring slot: no per-record lock and no buffer of drained records.
  std::lock_guard<std::mutex> lock(mu_);
  const ServeDrainStats stats = service_.drain(
      [this](const DecisionRecord& rec) { ingest_locked(rec); });
  collected_.fetch_add(stats.drained, std::memory_order_relaxed);
  return stats.drained;
}

std::unique_ptr<const PolicySnapshot> SnapshotTrainer::train_on(
    const core::ExplorationDataset& data, std::uint64_t id) const {
  if (data.empty()) {
    throw std::invalid_argument("SnapshotTrainer: empty dataset");
  }
  // The ridge fit train_cb_policy_with_model makes, without its policy.
  const core::RidgeRewardModel ridge = core::fit_ridge(
      data, options_.train.ridge_lambda, options_.train.importance_weighted);
  return PolicySnapshot::from_model(id, ridge, service_.options().dim,
                                    options_.epsilon);
}

std::uint64_t SnapshotTrainer::train_and_publish() {
  core::RidgeRewardModel ridge = empty_model();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (buffered_rows_locked() < options_.min_rows) return 0;
    // Oldest first, the open chunk last: the result depends only on the
    // sequence of tuples in the window.
    for (std::size_t i = 0; i < chunks_.size(); ++i) {
      ridge.merge_observations(chunks_[(head_ + i) % chunks_.size()]);
    }
  }
  ridge.fit();
  // The service mints the id under its publish lock and the snapshot is
  // built inside the same critical section, so racing publishers cannot
  // mint duplicates; we read the assigned id back from the return value.
  std::string persisted_bytes;
  const std::uint64_t id =
      service_.publish_with([&](std::uint64_t assigned_id) {
        auto snapshot = PolicySnapshot::from_model(
            assigned_id, ridge, service_.options().dim, options_.epsilon);
        if (options_.store != nullptr) persisted_bytes = snapshot->serialize();
        return snapshot;
      });
  published_.fetch_add(1, std::memory_order_relaxed);
  if (options_.store != nullptr) {
    try {
      options_.store->save_bytes(id, persisted_bytes);
      persisted_.fetch_add(1, std::memory_order_relaxed);
    } catch (const std::exception& e) {
      persist_failures_.fetch_add(1, std::memory_order_relaxed);
      std::fprintf(stderr,
                   "SnapshotTrainer: persisting snapshot %llu failed: %s\n",
                   static_cast<unsigned long long>(id), e.what());
    }
  }
  service_.try_reclaim();
  return id;
}

void SnapshotTrainer::start(std::chrono::milliseconds period) {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_requested_ = false;
  }
  worker_ = std::thread([this, period] {
    std::unique_lock<std::mutex> lock(stop_mu_);
    for (;;) {
      // Interruptible sleep: stop() flips the flag and notifies, so
      // shutdown latency is bounded by an in-flight retrain, not by the
      // period.
      if (stop_cv_.wait_for(lock, period,
                            [this] { return stop_requested_; })) {
        return;
      }
      lock.unlock();
      try {
        collect();
        train_and_publish();
      } catch (const std::exception& e) {
        // Leaving the thread function would call std::terminate; count the
        // round and keep serving the current snapshot.
        round_failures_.fetch_add(1, std::memory_order_relaxed);
        std::fprintf(stderr, "SnapshotTrainer: retrain round failed: %s\n",
                     e.what());
      }
      lock.lock();
    }
  });
}

void SnapshotTrainer::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  running_.store(false, std::memory_order_release);
}

std::size_t SnapshotTrainer::buffered_rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buffered_rows_locked();
}

std::size_t SnapshotTrainer::buffered_rows_locked() const {
  return (chunks_.size() - 1) * chunk_rows_ + open_rows_;
}

}  // namespace harvest::serve
