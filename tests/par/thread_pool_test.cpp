// Unit tests for the deterministic parallel layer: pool lifecycle and
// draining, nested submission, exception propagation, and the
// bit-determinism of parallel_for / parallel_reduce across pool sizes.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "par/par.h"

namespace harvest::par {
namespace {

TEST(ThreadPool, StartupShutdownDrainsAllTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.num_threads(), 4u);
    for (int i = 0; i < 1000; ++i) {
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    // Destructor must drain every queued task before joining.
  }
  EXPECT_EQ(ran.load(), 1000);
}

TEST(ThreadPool, SingleWorkerPoolRunsEverything) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, RepeatedConstructionAndTeardown) {
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> ran{0};
    {
      ThreadPool pool(3);
      for (int i = 0; i < 50; ++i) {
        pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      }
    }
    EXPECT_EQ(ran.load(), 50) << "round " << round;
  }
}

TEST(ThreadPool, NestedSubmitFromWorkerCompletes) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 8; ++i) {
      pool.submit([&pool, &ran] {
        // A parallel_for issued from a worker runs its shards inline...
        parallel_for(&pool, ShardPlan::per_item(4),
                     [&ran](std::size_t, std::size_t, std::size_t) {
                       EXPECT_TRUE(ThreadPool::on_worker_thread());
                       ran.fetch_add(1, std::memory_order_relaxed);
                     });
        // ...and a task a worker submits joins the same queue, which the
        // destructor drains.
        pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      });
    }
  }
  EXPECT_EQ(ran.load(), 8 * 4 + 8);
}

TEST(ShardPlan, LayoutIsThreadCountIndependentAndCoversRange) {
  for (std::size_t n : {0u, 1u, 5u, 511u, 512u, 513u, 100000u}) {
    const ShardPlan plan = ShardPlan::fixed(n);
    std::size_t covered = 0;
    std::size_t prev_end = 0;
    for (std::size_t s = 0; s < plan.num_shards; ++s) {
      const auto [begin, end] = plan.bounds(s);
      EXPECT_EQ(begin, prev_end);
      EXPECT_LE(begin, end);
      covered += end - begin;
      prev_end = end;
    }
    EXPECT_EQ(covered, n);
    if (n > 0) {
      EXPECT_EQ(prev_end, n);
    }
  }
}

TEST(ShardPlan, PerItemGivesOneShardPerItemUpToCap) {
  EXPECT_EQ(ShardPlan::per_item(5).num_shards, 5u);
  EXPECT_EQ(ShardPlan::per_item(200, 64).num_shards, 64u);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> visits(n);
  parallel_for(&pool, ShardPlan::fixed(n),
               [&](std::size_t, std::size_t begin, std::size_t end) {
                 for (std::size_t i = begin; i < end; ++i) {
                   visits[i].fetch_add(1, std::memory_order_relaxed);
                 }
               });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelFor, PropagatesShardException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(&pool, ShardPlan::fixed(10000, 16),
                   [](std::size_t shard, std::size_t, std::size_t) {
                     if (shard == 3) {
                       throw std::runtime_error("shard 3 failed");
                     }
                   }),
      std::runtime_error);
}

/// The core guarantee: identical results for pool sizes 0 (sequential),
/// 1, 2, and 8 — compared bitwise, not within tolerance.
TEST(ParallelReduce, BitIdenticalAcrossPoolSizes) {
  const std::size_t n = 50000;
  std::vector<double> values(n);
  util::Rng rng(1234);
  for (auto& v : values) v = rng.uniform(-1.0, 1.0);

  auto run = [&](ThreadPool* pool) {
    return parallel_reduce(
        pool, ShardPlan::fixed(n, 128), 0.0,
        [&](std::size_t, std::size_t begin, std::size_t end) {
          double s = 0;
          // Deliberately non-associative-friendly accumulation.
          for (std::size_t i = begin; i < end; ++i) {
            s += std::sin(values[i]) * 1e-3 + values[i];
          }
          return s;
        },
        [](double acc, double s) { return acc + s; });
  };

  const double sequential = run(nullptr);
  for (std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    const double parallel = run(&pool);
    EXPECT_EQ(sequential, parallel) << "pool size " << threads;
  }
}

TEST(ParallelReduce, MergesInShardOrder) {
  ThreadPool pool(4);
  const ShardPlan plan = ShardPlan::per_item(16);
  const std::vector<std::size_t> order = parallel_reduce(
      &pool, plan, std::vector<std::size_t>{},
      [](std::size_t shard, std::size_t, std::size_t) {
        return std::vector<std::size_t>{shard};
      },
      [](std::vector<std::size_t> acc, std::vector<std::size_t> shard) {
        acc.insert(acc.end(), shard.begin(), shard.end());
        return acc;
      });
  std::vector<std::size_t> expected(16);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(DefaultPool, ZeroAndOneMeanSequential) {
  set_default_threads(0);
  EXPECT_EQ(default_pool(), nullptr);
  set_default_threads(1);
  EXPECT_EQ(default_pool(), nullptr);
  set_default_threads(4);
  ASSERT_NE(default_pool(), nullptr);
  EXPECT_EQ(default_pool()->num_threads(), 3u);  // caller counts as one
  set_default_threads(1);  // leave the process sequential for other tests
  EXPECT_EQ(default_pool(), nullptr);
}

}  // namespace
}  // namespace harvest::par
