#include "serve/trainer.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/reward_model.h"
#include "serve/persist.h"

namespace harvest::serve {

SnapshotTrainer::SnapshotTrainer(DecisionService& service, Options options)
    : service_(service), options_(options) {}

SnapshotTrainer::~SnapshotTrainer() { stop(); }

bool SnapshotTrainer::ingest(const DecisionRecord& rec) {
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
  core::ExplorationPoint point;
  point.context = core::FeatureVector(
      std::vector<double>(rec.context, rec.context + rec.dim));
  point.action = rec.action;
  point.reward = rec.reward;
  point.propensity = rec.propensity;
  std::lock_guard<std::mutex> lock(mu_);
  buffer_.push_back(std::move(point));
  return true;
}

std::size_t SnapshotTrainer::collect() {
  const ServeDrainStats stats =
      service_.drain([this](const DecisionRecord& rec) { ingest(rec); });
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.window_rows > 0 && buffer_.size() > options_.window_rows) {
    buffer_.erase(buffer_.begin(),
                  buffer_.end() - static_cast<std::ptrdiff_t>(
                                      options_.window_rows));
  }
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
  core::ExplorationDataset data(service_.options().num_actions,
                                options_.reward_range);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (buffer_.size() < options_.min_rows) return 0;
    data.reserve(buffer_.size());
    for (const auto& point : buffer_) data.add(point);
  }
  // The service mints the id under its publish lock and the snapshot is
  // built inside the same critical section, so racing publishers cannot
  // mint duplicates; we read the assigned id back from the return value.
  std::string persisted_bytes;
  const std::uint64_t id =
      service_.publish_with([&](std::uint64_t assigned_id) {
        auto snapshot = train_on(data, assigned_id);
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
      collect();
      train_and_publish();
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
  return buffer_.size();
}

}  // namespace harvest::serve
