#include "serve/service.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <thread>

#include "obs/metrics.h"

namespace harvest::serve {

namespace {

std::size_t round_pow2(std::size_t n) {
  std::size_t c = 2;
  while (c < n) c <<= 1;
  return c;
}

}  // namespace

// ---- SnapshotRef -----------------------------------------------------------

SnapshotRef::~SnapshotRef() {
  if (slot_ != nullptr) slot_->store(nullptr, std::memory_order_release);
}

SnapshotRef::SnapshotRef(SnapshotRef&& other) noexcept
    : slot_(other.slot_), snap_(other.snap_) {
  other.slot_ = nullptr;
  other.snap_ = nullptr;
}

// ---- Decider ---------------------------------------------------------------

Decider::Decider(DecisionService* service, std::uint32_t index,
                 std::uint64_t seed, std::size_t ring_capacity)
    : service_(service),
      index_(index),
      rng_(seed),
      slots_(round_pow2(std::max<std::size_t>(ring_capacity, 2))),
      mask_(slots_.size() - 1) {}

const PolicySnapshot* Decider::acquire() {
  // Hazard-pointer handshake: publish the pointer we are about to use, then
  // confirm it is still the published snapshot. Both sides are seq_cst, so
  // in the single total order either the publisher's swap came first (we
  // re-read and retry with the new pointer) or our hazard store came first
  // (the publisher's reclamation scan must see it and spare the snapshot).
  const PolicySnapshot* snap =
      service_->current_.load(std::memory_order_acquire);
  for (;;) {
    hazard_.store(snap, std::memory_order_seq_cst);
    const PolicySnapshot* check =
        service_->current_.load(std::memory_order_seq_cst);
    if (check == snap) return snap;
    snap = check;
  }
}

Decision Decider::decide(std::span<const double> context) {
  if (context.size() != service_->options().dim) {
    throw std::invalid_argument("Decider::decide: context size != dim");
  }
  const PolicySnapshot* snap = acquire();
  const Decision d = decide_on(snap, context);
  release();
  return d;
}

Decision Decider::decide_on(const PolicySnapshot* snap,
                            std::span<const double> context) {
  if (staged_valid_) {
    // The previous decision's outcome was never reported: flush it with a
    // NaN reward so every decision reaches the log exactly once.
    staged_.reward = std::numeric_limits<double>::quiet_NaN();
    push(staged_);
    staged_valid_ = false;
  }
  const Decision d = snap->decide(context, rng_);

  staged_.time = static_cast<double>(seq_);
  staged_.reward = 0.0;
  staged_.propensity = d.propensity;
  staged_.snapshot_id = d.snapshot_id;
  staged_.action = d.action;
  staged_.dim = static_cast<std::uint32_t>(context.size());
  staged_.decider = index_;
  std::memcpy(staged_.context, context.data(),
              context.size() * sizeof(double));
  staged_valid_ = true;
  ++decided_;
  ++seq_;
  return d;
}

void Decider::log_reward(double reward) {
  if (!staged_valid_) {
    // The staged record was already flushed (a later decide() pushed it as
    // NaN) or nothing was ever staged: count the late reward instead of
    // silently ignoring it, so drain-side accounting stays conservative.
    orphaned_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  staged_.reward = reward;
  push(staged_);
  staged_valid_ = false;
}

SnapshotRef Decider::snapshot() { return SnapshotRef(&hazard_, acquire()); }

void Decider::push(const DecisionRecord& rec) {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  const std::uint64_t tail = tail_.load(std::memory_order_acquire);
  if (head - tail >= slots_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  slots_[head & mask_] = rec;
  head_.store(head + 1, std::memory_order_release);
  pushed_.fetch_add(1, std::memory_order_relaxed);
}

std::size_t Decider::drain_into(
    const std::function<void(const DecisionRecord&)>& fn) {
  std::lock_guard<std::mutex> lock(consumer_mu_);
  std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  std::size_t drained = 0;
  while (tail != head) {
    fn(slots_[tail & mask_]);
    // Advance only after fn returned: the producer may overwrite the slot
    // as soon as the new tail is visible.
    ++tail;
    tail_.store(tail, std::memory_order_release);
    ++drained;
  }
  return drained;
}

// ---- DecisionService -------------------------------------------------------

DecisionService::DecisionService(Options options,
                                 std::unique_ptr<const PolicySnapshot> initial)
    : options_(options) {
  if (options_.num_actions == 0) {
    throw std::invalid_argument("DecisionService: num_actions must be > 0");
  }
  if (options_.dim > kMaxContextDim) {
    throw std::invalid_argument(
        "DecisionService: dim exceeds kMaxContextDim");
  }
  if (initial == nullptr || initial->num_actions() != options_.num_actions ||
      initial->dim() != options_.dim) {
    throw std::invalid_argument(
        "DecisionService: initial snapshot does not match the service "
        "geometry");
  }
  ring_capacity_ = round_pow2(std::max<std::size_t>(options_.log_capacity, 2));
  published_ids_.insert(initial->id());
  next_id_ = initial->id() + 1;
  current_owner_ = std::move(initial);
  current_.store(current_owner_.get(), std::memory_order_release);
}

DecisionService::~DecisionService() = default;

Decider& DecisionService::add_decider() {
  std::lock_guard<std::mutex> lock(deciders_mu_);
  const auto index = static_cast<std::uint32_t>(deciders_.size());
  deciders_.push_back(std::unique_ptr<Decider>(
      new Decider(this, index, util::derive_stream_seed(options_.seed, index),
                  ring_capacity_)));
  return *deciders_.back();
}

std::size_t DecisionService::num_deciders() const {
  std::lock_guard<std::mutex> lock(deciders_mu_);
  return deciders_.size();
}

void DecisionService::validate_snapshot(const PolicySnapshot* snap) const {
  if (snap == nullptr || snap->num_actions() != options_.num_actions ||
      snap->dim() != options_.dim) {
    throw std::invalid_argument(
        "DecisionService: published snapshot does not match the service "
        "geometry");
  }
}

std::uint64_t DecisionService::publish_locked(
    std::unique_ptr<const PolicySnapshot> next) {
  const PolicySnapshot* raw = next.get();
  published_ids_.insert(raw->id());
  next_id_ = std::max(next_id_, raw->id() + 1);
  retired_.push_back(std::move(current_owner_));
  current_owner_ = std::move(next);
  current_.store(raw, std::memory_order_seq_cst);
  swaps_.fetch_add(1, std::memory_order_relaxed);
  if (options_.registry != nullptr) {
    options_.registry->counter("serve_swaps_total").add(1);
  }
  // Opportunistic sweep: snapshots retired by earlier swaps whose readers
  // have since moved on are freed here, so a steadily publishing trainer
  // keeps the retired list at O(active readers).
  const std::size_t freed = reclaim_locked();
  if (freed > 0 && options_.registry != nullptr) {
    options_.registry->counter("serve_reclaimed_total")
        .add(static_cast<double>(freed));
  }
  return raw->id();
}

std::uint64_t DecisionService::publish(
    std::unique_ptr<const PolicySnapshot> next) {
  validate_snapshot(next.get());
  std::lock_guard<std::mutex> lock(publish_mu_);
  return publish_locked(std::move(next));
}

std::uint64_t DecisionService::publish_with(
    const std::function<std::unique_ptr<const PolicySnapshot>(std::uint64_t)>&
        make) {
  // The id is minted and consumed under the same hold of publish_mu_, so
  // two racing publishers serialize and can never build snapshots with the
  // same id. `make` (typically a retrain flatten) runs under the lock —
  // cold-path work that blocks other publishers, never deciders.
  std::lock_guard<std::mutex> lock(publish_mu_);
  const std::uint64_t id = next_id_;
  std::unique_ptr<const PolicySnapshot> next = make(id);
  validate_snapshot(next.get());
  if (next->id() != id) {
    throw std::invalid_argument(
        "DecisionService: publish_with callback ignored the assigned id");
  }
  return publish_locked(std::move(next));
}

std::size_t DecisionService::try_reclaim() {
  std::lock_guard<std::mutex> lock(publish_mu_);
  const std::size_t freed = reclaim_locked();
  if (freed > 0 && options_.registry != nullptr) {
    options_.registry->counter("serve_reclaimed_total")
        .add(static_cast<double>(freed));
  }
  return freed;
}

std::size_t DecisionService::reclaim_locked() {
  if (retired_.empty()) return 0;
  // Scan every hazard slot AFTER the swap that retired these snapshots: a
  // reader that acquired a retired snapshot published its hazard before our
  // seq_cst load here, so it cannot be missed.
  std::vector<const PolicySnapshot*> held;
  {
    std::lock_guard<std::mutex> lock(deciders_mu_);
    held.reserve(deciders_.size());
    for (const auto& d : deciders_) {
      const PolicySnapshot* p = d->hazard_.load(std::memory_order_seq_cst);
      if (p != nullptr) held.push_back(p);
    }
  }
  const auto is_held = [&held](const std::unique_ptr<const PolicySnapshot>& s) {
    return std::find(held.begin(), held.end(), s.get()) != held.end();
  };
  std::size_t freed = 0;
  for (auto it = retired_.begin(); it != retired_.end();) {
    if (is_held(*it)) {
      ++it;
    } else {
      it = retired_.erase(it);  // unique_ptr frees the snapshot
      ++freed;
    }
  }
  reclaimed_.fetch_add(freed, std::memory_order_relaxed);
  return freed;
}

void DecisionService::reclaim_all() {
  for (;;) {
    try_reclaim();
    if (retired_count() == 0) return;
    std::this_thread::yield();
  }
}

std::size_t DecisionService::retired_count() const {
  std::lock_guard<std::mutex> lock(publish_mu_);
  return retired_.size();
}

bool DecisionService::was_published(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(publish_mu_);
  return published_ids_.count(id) > 0;
}

ServeDrainStats DecisionService::drain(
    const std::function<void(const DecisionRecord&)>& fn) {
  std::vector<Decider*> deciders;
  {
    std::lock_guard<std::mutex> lock(deciders_mu_);
    deciders.reserve(deciders_.size());
    for (const auto& d : deciders_) deciders.push_back(d.get());
  }
  ServeDrainStats stats;
  for (Decider* d : deciders) stats.drained += d->drain_into(fn);
  drained_total_.fetch_add(stats.drained, std::memory_order_relaxed);
  stats.dropped_total = dropped_total();
  stats.orphaned_rewards = orphaned_total();
  if (options_.registry != nullptr && stats.drained > 0) {
    options_.registry->counter("serve_drained_total")
        .add(static_cast<double>(stats.drained));
  }
  return stats;
}

std::uint64_t DecisionService::decided_total() const {
  std::lock_guard<std::mutex> lock(deciders_mu_);
  std::uint64_t total = 0;
  for (const auto& d : deciders_) total += d->decided();
  return total;
}

std::uint64_t DecisionService::dropped_total() const {
  std::lock_guard<std::mutex> lock(deciders_mu_);
  std::uint64_t total = 0;
  for (const auto& d : deciders_) total += d->dropped();
  return total;
}

std::uint64_t DecisionService::orphaned_total() const {
  std::lock_guard<std::mutex> lock(deciders_mu_);
  std::uint64_t total = 0;
  for (const auto& d : deciders_) total += d->orphaned();
  return total;
}

}  // namespace harvest::serve
