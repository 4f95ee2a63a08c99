// Flight recorder: lock-free per-thread telemetry for the harvest hot paths.
//
// The obs layer's Registry (metrics.h) is built for coarse instrumentation —
// metric creation and histogram recording take mutexes. The recorder is the
// telemetry substrate for the paths where that is not acceptable: per-task
// pool events, per-block store scans, per-decision quarantine
// classifications, and the online decision service (>= 1M
// decisions/sec/core). Coarse pipeline stages record ScopedSpans into it.
//
// Architecture:
//   producers (any thread)          collector (on demand)
//   ┌────────────────────┐
//   │ thread-local SPSC  │  drain   ┌─────────────────────────────┐
//   │ ring of fixed-size │ ───────> │ bounded in-memory trace ring │
//   │ 40-byte Events     │          │ + Registry aggregation       │
//   └────────────────────┘          └─────────────────────────────┘
//
//  - Emission is wait-free: one enabled check, two relaxed/acquire atomic
//    loads, a 40-byte slot write, one release store. No allocation, no lock.
//  - Every thread gets its own single-producer/single-consumer ring on first
//    emit. When a ring is full the event is counted in an explicit per-ring
//    drop counter, never silently lost: pushed + dropped == attempted.
//  - With `self_drain` on (the default), a producer whose ring crosses the
//    high-water mark drains *its own* ring into the trace (amortized, off
//    the per-event path), so default configurations record drop-free without
//    a background thread.
//  - Timestamps come from one monotonic clock with one process-wide epoch
//    (steady_clock), so events from different threads order correctly and
//    cross-thread causality is reconstructible from the merged trace.
//  - Names are interned once (mutex, cold path) to 32-bit ids; hot call
//    sites intern in a function-local static and pass the id.
//
// Export: write_chrome_trace emits Chrome Trace Event Format JSON loadable
// by chrome://tracing and Perfetto, the one trace format tools/harvest_trace
// analyzes.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace harvest::obs {

/// What one fixed-size trace event means. kScopeSpan is an obs::ScopedSpan
/// (explicit id/parent/depth, so the span tree survives the export); kSpan
/// is a recorder-native duration event whose nesting is implied by interval
/// containment within a thread; kInstant marks a point in time; kCounter
/// samples a value (histogram samples, queue depths).
enum class EventKind : std::uint8_t {
  kSpan = 0,
  kScopeSpan = 1,
  kInstant = 2,
  kCounter = 3,
};

/// One fixed-size (40-byte) telemetry event. `a`/`b` are kind-specific
/// payloads: span id / parent id for kScopeSpan, free-form arguments for
/// kSpan/kInstant (e.g. shard index, block count), and the f64 bit pattern
/// of the sampled value for kCounter.
struct Event {
  std::uint64_t ts_ns = 0;   ///< start time, ns since the recorder epoch
  std::uint64_t dur_ns = 0;  ///< duration for span kinds, 0 otherwise
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint32_t name = 0;  ///< interned name id
  EventKind kind = EventKind::kSpan;
  std::uint8_t depth = 0;  ///< kScopeSpan nesting depth
  std::uint16_t tid = 0;   ///< recorder-assigned thread index
};
static_assert(sizeof(Event) == 40, "Event must stay fixed-size and small");

/// Collector-side accounting, cumulative over the recorder's lifetime.
struct DrainStats {
  std::size_t collected = 0;        ///< events moved to the trace this drain
  std::uint64_t ring_dropped = 0;   ///< cumulative producer-side drops
  std::uint64_t trace_evicted = 0;  ///< cumulative bounded-trace evictions
};

class Recorder {
 public:
  struct Options {
    /// Events per per-thread ring (rounded up to a power of two).
    std::size_t ring_capacity = 1 << 14;
    /// Bounded in-memory trace: newest events are kept, older ones evicted
    /// (counted in trace_evicted).
    std::size_t trace_capacity = 1 << 18;
    /// Producers drain their own ring past the high-water mark so default
    /// configurations never drop. Disable to test exact drop accounting.
    bool self_drain = true;
    /// When set, every drain aggregates into this registry:
    /// recorder_events_total{kind=…}, recorder_span_us{name=…}, and
    /// recorder_dropped_total.
    Registry* registry = nullptr;
  };

  Recorder();
  explicit Recorder(Options options);
  /// Takes no further events. Threads must not emit into a recorder being
  /// destroyed; the process-wide instance is leaked so this never
  /// constrains hot paths.
  ~Recorder();

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Monotonic ns since the recorder's epoch — the shared event clock.
  std::uint64_t now_ns() const;

  /// Interns `name`, returning a stable 32-bit id. Mutex-guarded; hot call
  /// sites should intern once (function-local static) and reuse the id.
  std::uint32_t intern(std::string_view name);
  /// The interned string for `id` ("?" when out of range). Stable storage.
  std::string_view name_of(std::uint32_t id) const;

  /// Next ScopedSpan id (1-based, 0 reserved for "no parent").
  std::uint64_t next_span_id() {
    return 1 + span_ids_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Names the calling thread in exports (e.g. "pool.worker-3").
  void set_thread_name(std::string name);

  // -- producers (wait-free; amortized self-drain when configured) --------
  /// Records `e` on the calling thread's ring; fills in `tid`. Returns
  /// false when the event was dropped (ring full, self-drain off or busy).
  bool emit(Event e);
  bool emit_span(std::uint32_t name, std::uint64_t start_ns,
                 std::uint64_t dur_ns, std::uint64_t a = 0,
                 std::uint64_t b = 0);
  bool emit_instant(std::uint32_t name, std::uint64_t a = 0,
                    std::uint64_t b = 0);
  bool emit_counter(std::uint32_t name, double value);

  // -- collector ----------------------------------------------------------
  /// Drains every thread ring into the bounded trace (and the registry,
  /// when configured). Safe to call concurrently with producers.
  DrainStats drain();

  /// Drains, then returns the bounded trace oldest-first (insertion order:
  /// per-thread completion order, interleaved by drain batch — sort by
  /// ts_ns or ts_ns+dur_ns for global orderings).
  std::vector<Event> snapshot_events();

  /// Cumulative producer-side drops across all rings.
  std::uint64_t ring_dropped_total() const;
  /// Cumulative bounded-trace evictions.
  std::uint64_t trace_evicted_total() const {
    return trace_evicted_.load(std::memory_order_relaxed);
  }
  /// Events currently retained in the bounded trace.
  std::size_t trace_size() const;
  std::size_t trace_capacity() const { return options_.trace_capacity; }
  std::size_t ring_capacity() const { return ring_capacity_; }
  /// Threads that have registered a ring so far.
  std::size_t num_threads() const;
  /// Export-ordered thread names ("thread-<tid>" when never named).
  std::vector<std::string> thread_names() const;

  /// Discards all buffered events, the trace, and drop/evict accounting.
  /// Interned names, thread registrations, and span ids survive.
  void reset();

  /// Chrome Trace Event Format (JSON object with a "traceEvents" array),
  /// loadable by chrome://tracing and Perfetto. Drains first. Spans render
  /// as complete ("X") events, instants as "i", counters as "C", plus
  /// thread_name metadata. Timestamps are microseconds from the recorder
  /// epoch.
  void write_chrome_trace(std::ostream& out);

  /// The process-wide flight recorder (leaked; enabled by default, with
  /// self-drain and Registry::global() aggregation).
  static Recorder& global();

 private:
  /// Single-producer single-consumer event ring. The owning thread pushes;
  /// any thread may consume, one at a time (consumer_mu).
  struct ThreadRing {
    explicit ThreadRing(std::size_t capacity);

    bool try_push(const Event& e);          // producer only
    std::size_t size() const;               // producer-side estimate
    std::size_t drain_into(std::vector<Event>& out);  // under consumer_mu

    std::vector<Event> slots;
    std::size_t mask;
    alignas(64) std::atomic<std::uint64_t> head{0};  ///< next write
    alignas(64) std::atomic<std::uint64_t> tail{0};  ///< next read
    std::atomic<std::uint64_t> dropped{0};
    std::mutex consumer_mu;
    std::string name;
    std::thread::id owner;  ///< producing thread (registration key)
    std::uint16_t tid = 0;
  };

  ThreadRing& ring_for_this_thread();
  void self_drain(ThreadRing& ring);
  /// Appends drained events to the bounded trace and aggregates them into
  /// the registry. `stats` gets the collected count.
  void absorb(const std::vector<Event>& batch, std::size_t* collected);

  Options options_;
  std::size_t ring_capacity_ = 0;  ///< rounded to a power of two
  std::size_t high_water_ = 0;
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> span_ids_{0};

  mutable std::mutex threads_mu_;
  std::vector<std::unique_ptr<ThreadRing>> threads_;

  mutable std::mutex names_mu_;
  std::deque<std::string> names_;  // deque: stable references
  std::vector<std::pair<std::string_view, std::uint32_t>> name_index_;

  mutable std::mutex trace_mu_;
  std::vector<Event> trace_;       // ring over trace_capacity
  std::size_t trace_head_ = 0;     // next overwrite position once full
  bool trace_full_ = false;
  std::atomic<std::uint64_t> trace_evicted_{0};
  std::uint64_t dropped_aggregated_ = 0;  // guarded by trace_mu_
};

/// RAII recorder-native span: captures the clock on construction and emits
/// one kSpan event on destruction. Nesting in the exported trace is implied
/// by interval containment within the thread. `a`/`b` are free-form
/// arguments (set at construction or later via set_args).
class RecSpan {
 public:
  RecSpan(Recorder& recorder, std::uint32_t name, std::uint64_t a = 0,
          std::uint64_t b = 0)
      : recorder_(recorder.enabled() ? &recorder : nullptr),
        name_(name),
        a_(a),
        b_(b) {
    if (recorder_ != nullptr) start_ns_ = recorder_->now_ns();
  }
  ~RecSpan() {
    if (recorder_ == nullptr) return;
    recorder_->emit_span(name_, start_ns_, recorder_->now_ns() - start_ns_,
                         a_, b_);
  }

  RecSpan(const RecSpan&) = delete;
  RecSpan& operator=(const RecSpan&) = delete;

  void set_args(std::uint64_t a, std::uint64_t b) {
    a_ = a;
    b_ = b;
  }

 private:
  Recorder* recorder_;
  std::uint32_t name_;
  std::uint64_t a_, b_;
  std::uint64_t start_ns_ = 0;
};

/// RAII scope span for coarse stages: opens on construction and emits one
/// kScopeSpan event on destruction. Nesting is inferred from construction
/// order within a thread — a span constructed while another is open becomes
/// its child — and exported as explicit id/parent/depth. Costs a name
/// intern per construction; hot paths use RecSpan with a pre-interned id.
class ScopedSpan {
 public:
  ScopedSpan(Recorder& recorder, std::string_view name);
  /// Spans against Recorder::global().
  explicit ScopedSpan(std::string_view name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Recorder* recorder_;  // null when the recorder was disabled at construction
  std::uint32_t name_id_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_id_ = 0;
  std::uint64_t start_ns_ = 0;
  int depth_ = 0;
};

}  // namespace harvest::obs
