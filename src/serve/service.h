// The online decision service: `decide(context) -> (action, propensity)` on
// the hot path, with the logged tuple flowing back into the harvest loop.
//
// This is the serving half the paper's methodology assumes exists (Sayer
// runs exactly this shape in production): the system asks the service for a
// decision, the service answers from the currently published PolicySnapshot
// and logs `(context, action, propensity, snapshot_id)` plus the reward the
// caller reports, and a background trainer drains those tuples, retrains,
// and publishes a fresh snapshot — without ever stalling a decider.
//
//   decider threads (hot, zero-alloc)        publisher / trainer (cold)
//   ┌──────────────────────────────┐
//   │ hazard-acquire snapshot ptr  │  swap   ┌──────────────────────────┐
//   │ score actions, eps-greedy    │ <────── │ publish(new snapshot)    │
//   │ push DecisionRecord to own   │         │ retire old; reclaim when │
//   │ SPSC ring                    │ ──────> │ no hazard slot holds it  │
//   └──────────────────────────────┘  drain  └──────────────────────────┘
//
// Concurrency design:
//  - The published snapshot is a single atomic pointer. Each Decider owns a
//    hazard slot: it stores the pointer it is about to use, re-reads the
//    published pointer, and retries on mismatch (the classic hazard-pointer
//    handshake, both sides seq_cst). Deciders never block, never take a
//    lock, and never allocate on the decide path.
//  - publish() retires the previous snapshot onto a list; try_reclaim()
//    frees a retired snapshot only after scanning every hazard slot and
//    finding no reader holding it. Readers therefore never observe a freed
//    snapshot, and the publisher never waits on readers to make progress —
//    unreclaimed snapshots just wait for the next sweep.
//  - Each Decider logs into its own single-producer ring (the
//    obs/recorder SPSC pattern with fixed-size slots). A full ring drops
//    the record and counts it: logged + dropped == decisions, exactly.
//  - All registration (add_decider) and collection (drain) paths are
//    mutex-guarded cold paths.
//
// Determinism: decider d of a service seeded S draws its exploration
// randomness from util::derive_stream_seed(S, d), so a single-threaded
// serve of a fixed context stream is bit-identical across runs, and every
// decider's log is independent of thread interleaving.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_set>
#include <vector>

#include "serve/snapshot.h"
#include "util/hash.h"
#include "util/rng.h"

namespace harvest::obs {
class Registry;  // obs/metrics.h; optional cold-path counters
}

namespace harvest::serve {

/// Compile-time bound on context arity so DecisionRecord stays fixed-size
/// (one ring slot, no heap). Services with wider contexts are refused at
/// construction.
inline constexpr std::size_t kMaxContextDim = 16;

/// One logged decision: the full exploration tuple plus provenance. `time`
/// is the decider-local sequence number (doubles as the HLOG timestamp
/// column); `reward` is NaN for decisions whose outcome was never reported
/// (the trainer skips those). Fixed-size so the ring never allocates.
struct DecisionRecord {
  double time = 0;
  double reward = 0;
  double propensity = 0;
  std::uint64_t snapshot_id = 0;
  std::uint32_t action = 0;
  std::uint32_t dim = 0;
  std::uint32_t decider = 0;  ///< registration index of the emitting Decider
  std::uint32_t reserved = 0;
  double context[kMaxContextDim] = {};
};

/// drain() outcome: records delivered this call plus the service-lifetime
/// loss counters — records lost to full rings, and log_reward() calls that
/// arrived after their staged record was already flushed (both counted,
/// never silent).
struct ServeDrainStats {
  std::size_t drained = 0;
  std::uint64_t dropped_total = 0;
  std::uint64_t orphaned_rewards = 0;
};

class DecisionService;

/// RAII hazard-protected view of the currently published snapshot. While a
/// ref is live, reclamation will not free the snapshot it points at. Only
/// the owning Decider's thread may hold one, and decide() must not be
/// called while one is held (one hazard slot per decider).
class SnapshotRef {
 public:
  ~SnapshotRef();
  SnapshotRef(const SnapshotRef&) = delete;
  SnapshotRef& operator=(const SnapshotRef&) = delete;
  SnapshotRef(SnapshotRef&& other) noexcept;
  SnapshotRef& operator=(SnapshotRef&&) = delete;

  const PolicySnapshot* get() const { return snap_; }
  const PolicySnapshot& operator*() const { return *snap_; }
  const PolicySnapshot* operator->() const { return snap_; }

 private:
  friend class Decider;
  SnapshotRef(std::atomic<const PolicySnapshot*>* slot,
              const PolicySnapshot* snap)
      : slot_(slot), snap_(snap) {}

  std::atomic<const PolicySnapshot*>* slot_;
  const PolicySnapshot* snap_;
};

/// A per-thread handle into the service: the hazard slot, the exploration
/// RNG stream, and the SPSC decision ring. Create one per serving thread
/// via DecisionService::add_decider() (cold); decide()/log_reward() are the
/// zero-allocation hot path and must only be called from one thread at a
/// time (the ring is single-producer).
class Decider {
 public:
  Decider(const Decider&) = delete;
  Decider& operator=(const Decider&) = delete;

  /// The hot path: acquires the published snapshot (hazard handshake),
  /// draws the epsilon-greedy action, and stages the decision tuple for
  /// logging. If a previous decision is still staged (log_reward never
  /// called), it is first flushed with reward NaN so no decision silently
  /// vanishes. Zero-allocation. Throws std::invalid_argument, before
  /// anything is staged, unless context.size() == service dim.
  Decision decide(std::span<const double> context);

  /// Completes the staged tuple with the observed reward and pushes it to
  /// the ring (dropped + counted when full). A reward arriving after the
  /// staged record was already flushed (the next decide() pushed it as NaN)
  /// is counted as orphaned, never silently ignored. Zero-allocation.
  void log_reward(double reward);

  /// decide() + log_reward() in one call, for callers that know the reward
  /// immediately (benches, simulators).
  Decision decide_logged(std::span<const double> context, double reward) {
    const Decision d = decide(context);
    log_reward(reward);
    return d;
  }

  /// Hazard-protected access to the published snapshot (stress tests,
  /// snapshot inspection). Do not call decide() while the ref is live.
  SnapshotRef snapshot();

  std::uint32_t index() const { return index_; }
  /// Decisions made (== staged), records pushed, and records dropped by a
  /// full ring. pushed + dropped + (0 or 1 staged) == decided.
  std::uint64_t decided() const { return decided_; }
  std::uint64_t logged() const {
    return pushed_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// log_reward() calls that found no staged decision (already flushed).
  std::uint64_t orphaned() const {
    return orphaned_.load(std::memory_order_relaxed);
  }

  util::Rng& rng() { return rng_; }

 private:
  friend class DecisionService;
  Decider(DecisionService* service, std::uint32_t index, std::uint64_t seed,
          std::size_t ring_capacity);

  const PolicySnapshot* acquire();
  void release() { hazard_.store(nullptr, std::memory_order_release); }
  /// The staging half of decide(): flush any still-staged record as NaN,
  /// draw from `snap`, stage the new tuple. Caller holds the hazard.
  Decision decide_on(const PolicySnapshot* snap,
                     std::span<const double> context);
  void push(const DecisionRecord& rec);
  /// Drains [tail, head) into `fn` under the consumer mutex.
  std::size_t drain_into(const std::function<void(const DecisionRecord&)>& fn);

  DecisionService* service_;
  std::uint32_t index_;
  util::Rng rng_;

  // Hazard slot: the snapshot this decider is currently reading (nullptr
  // when idle). Its own cache line so publisher scans do not bounce the
  // producer's ring counters.
  alignas(64) std::atomic<const PolicySnapshot*> hazard_{nullptr};

  // Staged (decided but not yet reward-labeled) tuple.
  DecisionRecord staged_;
  bool staged_valid_ = false;
  std::uint64_t decided_ = 0;
  std::uint64_t seq_ = 0;
  std::atomic<std::uint64_t> orphaned_{0};

  // SPSC ring: this decider pushes, any thread may drain (one at a time).
  std::vector<DecisionRecord> slots_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::uint64_t> head_{0};  ///< next write
  alignas(64) std::atomic<std::uint64_t> tail_{0};  ///< next read
  std::atomic<std::uint64_t> pushed_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::mutex consumer_mu_;
};

class DecisionService {
 public:
  struct Options {
    std::size_t num_actions = 0;
    std::size_t dim = 0;  ///< context arity; must be <= kMaxContextDim
    /// Per-decider ring capacity in records (rounded up to a power of two).
    std::size_t log_capacity = 1 << 16;
    /// Root seed; decider d's exploration stream is
    /// derive_stream_seed(seed, d).
    std::uint64_t seed = 42;
    /// When set, publish/drain export cold-path counters:
    /// serve_swaps_total, serve_reclaimed_total, serve_drained_total,
    /// serve_dropped_total.
    obs::Registry* registry = nullptr;
  };

  /// Starts serving `initial` (typically PolicySnapshot::uniform — the
  /// pre-existing randomized heuristic). Throws std::invalid_argument on a
  /// zero-action/over-wide geometry or a snapshot that does not match it.
  DecisionService(Options options,
                  std::unique_ptr<const PolicySnapshot> initial);
  /// Reclaims every snapshot. All deciders must have stopped deciding.
  ~DecisionService();

  DecisionService(const DecisionService&) = delete;
  DecisionService& operator=(const DecisionService&) = delete;

  const Options& options() const { return options_; }

  /// Registers a new decider (cold; mutex). The reference stays valid for
  /// the service's lifetime — deciders are never removed.
  Decider& add_decider();
  std::size_t num_deciders() const;

  // ---- publisher side ---------------------------------------------------
  /// Atomically swaps the published snapshot; the old one is retired and
  /// reclaimed once no decider holds it. Never blocks deciders; returns the
  /// published id. Thread-safe (single swap at a time via internal mutex);
  /// the service's internal id counter advances past the published id, so
  /// explicit-id publishes compose with publish_with().
  std::uint64_t publish(std::unique_ptr<const PolicySnapshot> next);

  /// Race-free id assignment: mints the next unused snapshot id under the
  /// publish lock, calls `make(id)` to build the snapshot (which must carry
  /// exactly that id — snapshot ids are baked into the integrity checksum,
  /// so they cannot be patched after construction), and publishes it. Two
  /// racing publishers can never mint the same id; callers read the
  /// assigned id back from the return value. Throws std::invalid_argument
  /// when `make` returns a null, mismatched-geometry, or wrong-id snapshot.
  std::uint64_t publish_with(
      const std::function<std::unique_ptr<const PolicySnapshot>(std::uint64_t)>&
          make);
  /// Frees retired snapshots no hazard slot references; returns how many.
  std::size_t try_reclaim();
  /// Spins (with yields) until every retired snapshot is reclaimed. Only
  /// call when deciders are quiescing (teardown, tests) — a decider parked
  /// inside decide() forever would make this wait forever.
  void reclaim_all();

  std::uint64_t current_id() const {
    return current_.load(std::memory_order_acquire)->id();
  }
  std::uint64_t swaps() const { return swaps_.load(std::memory_order_relaxed); }
  std::uint64_t reclaimed() const {
    return reclaimed_.load(std::memory_order_relaxed);
  }
  std::size_t retired_count() const;
  /// True iff a snapshot with this id was ever published (or was the
  /// initial snapshot) — the stress suite's provenance check.
  bool was_published(std::uint64_t id) const;

  // ---- collector side ---------------------------------------------------
  /// Drains every decider ring in registration order (each ring FIFO),
  /// invoking `fn` per record. Safe to call concurrently with deciders;
  /// single-threaded drains are deterministic.
  ServeDrainStats drain(const std::function<void(const DecisionRecord&)>& fn);

  std::uint64_t decided_total() const;
  std::uint64_t dropped_total() const;
  /// log_reward() calls across all deciders that found nothing staged.
  std::uint64_t orphaned_total() const;

 private:
  friend class Decider;

  /// Frees unheld retired snapshots; caller holds publish_mu_.
  std::size_t reclaim_locked();
  /// Swap + retire + reclaim; caller holds publish_mu_ and has validated.
  std::uint64_t publish_locked(std::unique_ptr<const PolicySnapshot> next);
  void validate_snapshot(const PolicySnapshot* snap) const;

  Options options_;
  std::size_t ring_capacity_ = 0;

  std::atomic<const PolicySnapshot*> current_{nullptr};

  mutable std::mutex publish_mu_;
  std::unique_ptr<const PolicySnapshot> current_owner_;  // guarded
  std::vector<std::unique_ptr<const PolicySnapshot>> retired_;  // guarded
  std::unordered_set<std::uint64_t> published_ids_;             // guarded
  std::uint64_t next_id_ = 0;  ///< next id publish_with() mints; guarded
  std::atomic<std::uint64_t> swaps_{0};
  std::atomic<std::uint64_t> reclaimed_{0};

  mutable std::mutex deciders_mu_;
  std::vector<std::unique_ptr<Decider>> deciders_;  // guarded (growth only)

  std::atomic<std::uint64_t> drained_total_{0};
};

}  // namespace harvest::serve
