#include "obs/recorder.h"

#include <algorithm>
#include <bit>
#include <ostream>

#include "util/json.h"
#include "util/string_util.h"

namespace harvest::obs {

namespace {

/// Producer-side thread-local ring cache. A thread may record into several
/// recorders over its lifetime (tests construct local ones), so the cache is
/// a small vector of (recorder, ring) pairs. Destroying *any* recorder bumps
/// the global generation, invalidating every cache entry — the only way a
/// stale pointer could otherwise be revived is a new recorder allocated at
/// the same address.
std::atomic<std::uint64_t> g_recorder_generation{1};

struct RingCacheEntry {
  const Recorder* recorder = nullptr;
  void* ring = nullptr;
  std::uint64_t generation = 0;
};

thread_local std::vector<RingCacheEntry> tls_ring_cache;

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

const char* kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kSpan:
      return "span";
    case EventKind::kScopeSpan:
      return "scope_span";
    case EventKind::kInstant:
      return "instant";
    case EventKind::kCounter:
      return "counter";
  }
  return "unknown";
}

}  // namespace

// ---------------------------------------------------------------------------
// ThreadRing (SPSC)
// ---------------------------------------------------------------------------

Recorder::ThreadRing::ThreadRing(std::size_t capacity)
    : slots(capacity), mask(capacity - 1) {}

bool Recorder::ThreadRing::try_push(const Event& e) {
  const std::uint64_t h = head.load(std::memory_order_relaxed);
  // Acquire pairs with the consumer's tail release: the consumer finished
  // reading a slot before publishing the new tail, so overwriting is safe.
  const std::uint64_t t = tail.load(std::memory_order_acquire);
  if (h - t >= slots.size()) return false;
  slots[h & mask] = e;
  // Release pairs with the consumer's head acquire: the slot write is
  // visible before the new head is.
  head.store(h + 1, std::memory_order_release);
  return true;
}

std::size_t Recorder::ThreadRing::size() const {
  return static_cast<std::size_t>(head.load(std::memory_order_relaxed) -
                                  tail.load(std::memory_order_relaxed));
}

std::size_t Recorder::ThreadRing::drain_into(std::vector<Event>& out) {
  const std::uint64_t t = tail.load(std::memory_order_relaxed);
  const std::uint64_t h = head.load(std::memory_order_acquire);
  for (std::uint64_t i = t; i != h; ++i) out.push_back(slots[i & mask]);
  tail.store(h, std::memory_order_release);
  return static_cast<std::size_t>(h - t);
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

Recorder::Recorder() : Recorder(Options{}) {}

Recorder::Recorder(Options options)
    : options_(options),
      ring_capacity_(round_up_pow2(std::max<std::size_t>(
          options.ring_capacity, 8))),
      epoch_(std::chrono::steady_clock::now()) {
  options_.trace_capacity = std::max<std::size_t>(options_.trace_capacity, 1);
  high_water_ = ring_capacity_ - ring_capacity_ / 4;  // 3/4 full
  trace_.reserve(std::min<std::size_t>(options_.trace_capacity, 1 << 16));
}

Recorder::~Recorder() {
  // Invalidate every thread's cached ring pointers into this recorder.
  g_recorder_generation.fetch_add(1, std::memory_order_release);
}

std::uint64_t Recorder::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

std::uint32_t Recorder::intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(names_mu_);
  for (const auto& [known, id] : name_index_) {
    if (known == name) return id;
  }
  names_.emplace_back(name);
  const auto id = static_cast<std::uint32_t>(names_.size() - 1);
  name_index_.emplace_back(names_.back(), id);
  return id;
}

std::string_view Recorder::name_of(std::uint32_t id) const {
  std::lock_guard<std::mutex> lock(names_mu_);
  if (id >= names_.size()) return "?";
  return names_[id];  // deque storage: stable beyond the lock
}

void Recorder::set_thread_name(std::string name) {
  ThreadRing& ring = ring_for_this_thread();
  std::lock_guard<std::mutex> lock(threads_mu_);
  ring.name = std::move(name);
}

Recorder::ThreadRing& Recorder::ring_for_this_thread() {
  const std::uint64_t generation =
      g_recorder_generation.load(std::memory_order_acquire);
  for (const RingCacheEntry& entry : tls_ring_cache) {
    if (entry.recorder == this && entry.generation == generation) {
      return *static_cast<ThreadRing*>(entry.ring);
    }
  }
  // Cold path: register (or re-find after a generation bump is impossible —
  // rings are keyed per registration, and a bumped generation means some
  // recorder died; this one is alive, so a fresh ring is correct only if
  // this thread never registered here. Track registration via the cache
  // *and* a per-recorder lookup by thread id.)
  std::lock_guard<std::mutex> lock(threads_mu_);
  static thread_local const std::thread::id self = std::this_thread::get_id();
  ThreadRing* ring = nullptr;
  for (auto& owned : threads_) {
    if (owned->owner == self) {
      ring = owned.get();
      break;
    }
  }
  if (ring == nullptr) {
    threads_.push_back(std::make_unique<ThreadRing>(ring_capacity_));
    ring = threads_.back().get();
    ring->tid = static_cast<std::uint16_t>(
        std::min<std::size_t>(threads_.size() - 1, 0xffff));
    ring->owner = self;
  }
  // Evict stale entries, then cache (bounded).
  auto& cache = tls_ring_cache;
  std::erase_if(cache, [generation](const RingCacheEntry& e) {
    return e.generation != generation;
  });
  if (cache.size() >= 8) cache.erase(cache.begin());
  cache.push_back({this, ring, generation});
  return *ring;
}

bool Recorder::emit(Event e) {
  if (!enabled()) return false;
  ThreadRing& ring = ring_for_this_thread();
  e.tid = ring.tid;
  if (ring.try_push(e)) {
    if (options_.self_drain && ring.size() >= high_water_) self_drain(ring);
    return true;
  }
  if (options_.self_drain) {
    self_drain(ring);
    if (ring.try_push(e)) return true;
  }
  ring.dropped.fetch_add(1, std::memory_order_relaxed);
  return false;
}

bool Recorder::emit_span(std::uint32_t name, std::uint64_t start_ns,
                         std::uint64_t dur_ns, std::uint64_t a,
                         std::uint64_t b) {
  Event e;
  e.ts_ns = start_ns;
  e.dur_ns = dur_ns;
  e.a = a;
  e.b = b;
  e.name = name;
  e.kind = EventKind::kSpan;
  return emit(e);
}

bool Recorder::emit_instant(std::uint32_t name, std::uint64_t a,
                            std::uint64_t b) {
  Event e;
  e.ts_ns = now_ns();
  e.a = a;
  e.b = b;
  e.name = name;
  e.kind = EventKind::kInstant;
  return emit(e);
}

bool Recorder::emit_counter(std::uint32_t name, double value) {
  Event e;
  e.ts_ns = now_ns();
  e.a = std::bit_cast<std::uint64_t>(value);
  e.name = name;
  e.kind = EventKind::kCounter;
  return emit(e);
}

void Recorder::self_drain(ThreadRing& ring) {
  // The producer consumes its own ring: SPSC stays intact because
  // consumer_mu serializes against any concurrent collector drain.
  std::vector<Event> batch;
  {
    std::lock_guard<std::mutex> lock(ring.consumer_mu);
    batch.reserve(ring.size());
    ring.drain_into(batch);
  }
  std::size_t collected = 0;
  absorb(batch, &collected);
}

void Recorder::absorb(const std::vector<Event>& batch,
                      std::size_t* collected) {
  if (batch.empty()) return;
  std::lock_guard<std::mutex> lock(trace_mu_);
  for (const Event& e : batch) {
    if (trace_.size() < options_.trace_capacity) {
      trace_.push_back(e);
    } else {
      trace_full_ = true;
      trace_[trace_head_] = e;
      trace_head_ = (trace_head_ + 1) % options_.trace_capacity;
      trace_evicted_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  *collected += batch.size();
  if (options_.registry == nullptr) return;
  Registry& registry = *options_.registry;
  // Aggregate off the producer fast path: event counts by kind, span
  // durations by interned name (bounded cardinality — names are static
  // strings at call sites).
  std::size_t by_kind[4] = {0, 0, 0, 0};
  for (const Event& e : batch) {
    by_kind[static_cast<std::size_t>(e.kind)]++;
    if (e.kind == EventKind::kSpan || e.kind == EventKind::kScopeSpan) {
      registry
          .histogram("recorder_span_us",
                     {{"name", std::string(name_of(e.name))}})
          .observe(static_cast<double>(e.dur_ns) / 1000.0);
    }
  }
  for (std::size_t k = 0; k < 4; ++k) {
    if (by_kind[k] == 0) continue;
    registry
        .counter("recorder_events_total",
                 {{"kind", kind_name(static_cast<EventKind>(k))}})
        .add(static_cast<double>(by_kind[k]));
  }
  const std::uint64_t dropped = ring_dropped_total();
  if (dropped > dropped_aggregated_) {
    registry.counter("recorder_dropped_total")
        .add(static_cast<double>(dropped - dropped_aggregated_));
    dropped_aggregated_ = dropped;
  }
}

DrainStats Recorder::drain() {
  std::vector<ThreadRing*> rings;
  {
    std::lock_guard<std::mutex> lock(threads_mu_);
    rings.reserve(threads_.size());
    for (auto& t : threads_) rings.push_back(t.get());
  }
  DrainStats stats;
  std::vector<Event> batch;
  for (ThreadRing* ring : rings) {
    batch.clear();
    {
      std::lock_guard<std::mutex> lock(ring->consumer_mu);
      ring->drain_into(batch);
    }
    absorb(batch, &stats.collected);
  }
  stats.ring_dropped = ring_dropped_total();
  stats.trace_evicted = trace_evicted_total();
  return stats;
}

std::vector<Event> Recorder::snapshot_events() {
  drain();
  std::lock_guard<std::mutex> lock(trace_mu_);
  if (!trace_full_) return trace_;
  std::vector<Event> out;
  out.reserve(trace_.size());
  for (std::size_t i = 0; i < trace_.size(); ++i) {
    out.push_back(trace_[(trace_head_ + i) % trace_.size()]);
  }
  return out;
}

std::uint64_t Recorder::ring_dropped_total() const {
  std::lock_guard<std::mutex> lock(threads_mu_);
  std::uint64_t total = 0;
  for (const auto& t : threads_) {
    total += t->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

std::size_t Recorder::trace_size() const {
  std::lock_guard<std::mutex> lock(trace_mu_);
  return trace_.size();
}

std::size_t Recorder::num_threads() const {
  std::lock_guard<std::mutex> lock(threads_mu_);
  return threads_.size();
}

std::vector<std::string> Recorder::thread_names() const {
  std::lock_guard<std::mutex> lock(threads_mu_);
  std::vector<std::string> out;
  out.reserve(threads_.size());
  for (const auto& t : threads_) {
    out.push_back(t->name.empty() ? "thread-" + std::to_string(t->tid)
                                  : t->name);
  }
  return out;
}

void Recorder::reset() {
  // Discard buffered ring contents and drop accounting...
  std::vector<ThreadRing*> rings;
  {
    std::lock_guard<std::mutex> lock(threads_mu_);
    for (auto& t : threads_) rings.push_back(t.get());
  }
  std::vector<Event> discard;
  for (ThreadRing* ring : rings) {
    std::lock_guard<std::mutex> lock(ring->consumer_mu);
    discard.clear();
    ring->drain_into(discard);
    ring->dropped.store(0, std::memory_order_relaxed);
  }
  // ...then the bounded trace.
  std::lock_guard<std::mutex> lock(trace_mu_);
  trace_.clear();
  trace_head_ = 0;
  trace_full_ = false;
  trace_evicted_.store(0, std::memory_order_relaxed);
  dropped_aggregated_ = 0;
}

// ---------------------------------------------------------------------------
// Chrome Trace Event Format export
// ---------------------------------------------------------------------------

namespace {

/// Trims trailing fraction zeros ("2.500" -> "2.5", "1.000" -> "1") so the
/// dump stays compact without losing precision.
std::string trim_zeros(std::string s) {
  if (s.find('.') == std::string::npos) return s;
  while (!s.empty() && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

/// Microsecond rendering with stable 3-decimal precision (chrome's ts/dur
/// unit is microseconds; sub-us resolution survives as decimals).
std::string us(std::uint64_t ns) {
  return trim_zeros(util::format_double(static_cast<double>(ns) / 1000.0, 3));
}

}  // namespace

void Recorder::write_chrome_trace(std::ostream& out) {
  const std::vector<Event> events = snapshot_events();
  std::vector<std::string> threads = thread_names();

  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n";
  };
  for (std::size_t t = 0; t < threads.size(); ++t) {
    sep();
    out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << t
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
        << util::json::escape(threads[t]) << "\"}}";
  }
  // Sort by start time (stable: per-thread completion order breaks ties) so
  // the file is chronologically browsable even without a viewer.
  std::vector<std::size_t> order(events.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) {
                     return events[x].ts_ns < events[y].ts_ns;
                   });
  for (const std::size_t i : order) {
    const Event& e = events[i];
    const std::string name = util::json::escape(name_of(e.name));
    sep();
    switch (e.kind) {
      case EventKind::kSpan:
      case EventKind::kScopeSpan:
        out << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid << ",\"ts\":"
            << us(e.ts_ns) << ",\"dur\":" << us(e.dur_ns) << ",\"name\":\""
            << name << "\"";
        if (e.kind == EventKind::kScopeSpan) {
          out << ",\"args\":{\"id\":" << e.a << ",\"parent\":" << e.b
              << ",\"depth\":" << static_cast<int>(e.depth) << "}";
        } else if (e.a != 0 || e.b != 0) {
          out << ",\"args\":{\"a\":" << e.a << ",\"b\":" << e.b << "}";
        }
        out << "}";
        break;
      case EventKind::kInstant:
        out << "{\"ph\":\"i\",\"pid\":1,\"tid\":" << e.tid << ",\"ts\":"
            << us(e.ts_ns) << ",\"s\":\"t\",\"name\":\"" << name << "\"";
        if (e.a != 0 || e.b != 0) {
          out << ",\"args\":{\"a\":" << e.a << ",\"b\":" << e.b << "}";
        }
        out << "}";
        break;
      case EventKind::kCounter:
        out << "{\"ph\":\"C\",\"pid\":1,\"tid\":" << e.tid << ",\"ts\":"
            << us(e.ts_ns) << ",\"name\":\"" << name << "\",\"args\":{\""
            << name << "\":"
            << trim_zeros(util::format_double(std::bit_cast<double>(e.a), 6))
            << "}}";
        break;
    }
  }
  out << "\n]}\n";
}

Recorder& Recorder::global() {
  static Recorder* instance = [] {
    Options options;
    options.registry = &Registry::global();
    return new Recorder(options);  // leaked: outlives all users
  }();
  return *instance;
}

namespace {

/// Per-thread open-span state: the would-be parent of the next ScopedSpan.
/// Nesting is a property of the thread's call stack, so it is shared across
/// recorders.
struct ThreadSpanState {
  std::uint64_t current_parent = 0;
  int depth = 0;
};

ThreadSpanState& thread_span_state() {
  thread_local ThreadSpanState state;
  return state;
}

}  // namespace

ScopedSpan::ScopedSpan(Recorder& recorder, std::string_view name)
    : recorder_(recorder.enabled() ? &recorder : nullptr) {
  if (!recorder_) return;
  ThreadSpanState& state = thread_span_state();
  name_id_ = recorder_->intern(name);
  id_ = recorder_->next_span_id();
  parent_id_ = state.current_parent;
  depth_ = state.depth;
  start_ns_ = recorder_->now_ns();
  state.current_parent = id_;
  ++state.depth;
}

ScopedSpan::ScopedSpan(std::string_view name)
    : ScopedSpan(Recorder::global(), name) {}

ScopedSpan::~ScopedSpan() {
  if (!recorder_) return;
  ThreadSpanState& state = thread_span_state();
  state.current_parent = parent_id_;
  --state.depth;
  Event e;
  e.ts_ns = start_ns_;
  e.dur_ns = recorder_->now_ns() - start_ns_;
  e.a = id_;
  e.b = parent_id_;
  e.name = name_id_;
  e.kind = EventKind::kScopeSpan;
  e.depth = static_cast<std::uint8_t>(std::min(depth_, 255));
  recorder_->emit(e);
}

}  // namespace harvest::obs
