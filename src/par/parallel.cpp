#include "par/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/recorder.h"

namespace harvest::par {

ShardPlan ShardPlan::fixed(std::size_t n, std::size_t min_per_shard,
                           std::size_t max_shards) {
  ShardPlan plan;
  plan.n = n;
  if (n == 0) return plan;
  min_per_shard = std::max<std::size_t>(min_per_shard, 1);
  max_shards = std::max<std::size_t>(max_shards, 1);
  const std::size_t by_grain = (n + min_per_shard - 1) / min_per_shard;
  plan.num_shards = std::clamp<std::size_t>(by_grain, 1, max_shards);
  return plan;
}

ShardPlan ShardPlan::per_item(std::size_t n, std::size_t max_shards) {
  ShardPlan plan;
  plan.n = n;
  plan.num_shards = std::min(n, std::max<std::size_t>(max_shards, 1));
  return plan;
}

std::pair<std::size_t, std::size_t> ShardPlan::bounds(std::size_t s) const {
  // First (n % num_shards) shards get one extra element.
  const std::size_t base = n / num_shards;
  const std::size_t extra = n % num_shards;
  const std::size_t begin = s * base + std::min(s, extra);
  const std::size_t size = base + (s < extra ? 1 : 0);
  return {begin, begin + size};
}

namespace {

using ShardFn =
    std::function<void(std::size_t, std::size_t, std::size_t)>;

/// Shared state of one dispatched shard batch. Shards are claimed from
/// `next`; per-shard wall time lands in `shard_ms[shard]` so the caller can
/// export it in shard order after the join. The plan and function are held
/// by value: a straggler helper that wakes after the batch completed may
/// still probe the cursor, after the caller's stack frame is gone.
struct Batch {
  ShardPlan plan;
  ShardFn fn;
  std::atomic<std::size_t> next{0};
  std::vector<double> shard_ms;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t done = 0;  // guarded by mu
  std::exception_ptr error;  // first error wins, guarded by mu
};

/// Claims and runs shards until the cursor is exhausted.
void drain_batch(const std::shared_ptr<Batch>& batch) {
  std::size_t completed = 0;
  for (;;) {
    const std::size_t shard =
        batch->next.fetch_add(1, std::memory_order_relaxed);
    if (shard >= batch->plan.num_shards) break;
    const auto [begin, end] = batch->plan.bounds(shard);
    const auto t0 = std::chrono::steady_clock::now();
    try {
      batch->fn(shard, begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(batch->mu);
      if (!batch->error) batch->error = std::current_exception();
    }
    batch->shard_ms[shard] =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    ++completed;
  }
  if (completed > 0) {
    std::lock_guard<std::mutex> lock(batch->mu);
    batch->done += completed;
    if (batch->done == batch->plan.num_shards) batch->cv.notify_all();
  }
}

void run_sequential(const ShardPlan& plan, const ShardFn& fn) {
  for (std::size_t s = 0; s < plan.num_shards; ++s) {
    const auto [begin, end] = plan.bounds(s);
    fn(s, begin, end);
  }
}

}  // namespace

void parallel_for(ThreadPool* pool, const ShardPlan& plan, const ShardFn& fn) {
  if (plan.n == 0 || plan.num_shards == 0) return;
  if (pool == nullptr || plan.num_shards == 1 ||
      ThreadPool::on_worker_thread()) {
    // Sequential / nested path: same shards, same order, no pool round-trip.
    run_sequential(plan, fn);
    return;
  }

  obs::Registry& registry = obs::Registry::global();
  obs::ScopedSpan span("par.shard_batch");
  registry.counter("par_tasks_total")
      .add(static_cast<double>(plan.num_shards));
  registry.gauge("par_queue_depth")
      .set(static_cast<double>(pool->pending()));

  auto batch = std::make_shared<Batch>();
  batch->plan = plan;
  batch->fn = fn;
  batch->shard_ms.assign(plan.num_shards, 0.0);

  // One helper per worker (capped by shard count, minus the caller's share);
  // helpers that find the cursor exhausted exit immediately.
  const std::size_t helpers =
      std::min(pool->num_threads(), plan.num_shards - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    pool->submit([batch] { drain_batch(batch); });
  }
  drain_batch(batch);  // the caller participates

  {
    std::unique_lock<std::mutex> lock(batch->mu);
    batch->cv.wait(lock,
                   [&] { return batch->done == plan.num_shards; });
  }

  obs::Histogram& shard_hist = registry.histogram("par_shard_ms");
  for (double ms : batch->shard_ms) shard_hist.observe(ms);

  if (batch->error) std::rethrow_exception(batch->error);
}

}  // namespace harvest::par
