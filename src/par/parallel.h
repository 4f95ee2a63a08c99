// Deterministic data parallelism: parallel_for / parallel_reduce over a
// static shard plan.
//
// The determinism guarantee, and how it is kept:
//  1. The shard layout (ShardPlan) is a pure function of the input size and
//     the plan parameters — it NEVER depends on the thread count. Running
//     with --threads 1 and --threads 64 executes the exact same shards.
//  2. Shards write only to pre-assigned slots (their own index range /
//     result slot), so execution order cannot reorder floating-point
//     operations within or across shards.
//  3. parallel_reduce merges per-shard accumulators strictly in shard
//     order on the calling thread.
// Together these make every par:: computation bit-identical for any pool
// size, including no pool at all.
//
// Scheduling: shards are claimed dynamically from an atomic cursor (load
// balance), executed by pool workers plus the submitting thread
// (work-helping join, so a saturated pool cannot deadlock the caller).
// Nested calls — a parallel_for issued from inside a pool task — run their
// shards inline on the current worker; results are unaffected because of
// (1)-(3).
//
// Observability (recorded only when a batch is actually dispatched to a
// pool): par_tasks_total counter, par_queue_depth gauge, par_shard_ms
// histogram, and one "par.shard_batch" span per batch.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "par/thread_pool.h"

namespace harvest::par {

/// Static sharding of [0, n): `num_shards` contiguous ranges whose sizes
/// differ by at most one. The layout depends only on (n, min_per_shard,
/// max_shards) — never on the thread count.
struct ShardPlan {
  std::size_t n = 0;
  std::size_t num_shards = 0;

  /// Default plan for per-record work: enough shards to balance 8-16 way
  /// parallelism, capped so tiny inputs are not over-split.
  static ShardPlan fixed(std::size_t n, std::size_t min_per_shard = 512,
                         std::size_t max_shards = 64);

  /// Plan for coarse work items (e.g. one simulation per element) where
  /// every element is expensive: up to `max_shards` shards of >= 1 element.
  static ShardPlan per_item(std::size_t n, std::size_t max_shards = 64);

  /// Half-open [begin, end) range of shard `s`.
  std::pair<std::size_t, std::size_t> bounds(std::size_t s) const;
};

/// Runs fn(shard, begin, end) for every shard of `plan`. Blocks until all
/// shards finished; rethrows the first exception a shard threw. `pool` may
/// be null (sequential execution, same results).
void parallel_for(ThreadPool* pool, const ShardPlan& plan,
                  const std::function<void(std::size_t shard,
                                           std::size_t begin,
                                           std::size_t end)>& fn);

/// Deterministic map-reduce: shard_fn produces one accumulator per shard
/// (executed in parallel), merge folds them IN SHARD ORDER on the calling
/// thread: acc = merge(move(acc), shard_acc[s]) for s = 0..num_shards-1.
/// Bit-identical results for any thread count.
template <typename Acc, typename ShardFn, typename MergeFn>
Acc parallel_reduce(ThreadPool* pool, const ShardPlan& plan, Acc init,
                    ShardFn&& shard_fn, MergeFn&& merge) {
  std::vector<std::optional<Acc>> partials(plan.num_shards);
  parallel_for(pool, plan,
               [&](std::size_t shard, std::size_t begin, std::size_t end) {
                 partials[shard].emplace(shard_fn(shard, begin, end));
               });
  Acc acc = std::move(init);
  for (auto& partial : partials) {
    acc = merge(std::move(acc), std::move(*partial));
  }
  return acc;
}

}  // namespace harvest::par
