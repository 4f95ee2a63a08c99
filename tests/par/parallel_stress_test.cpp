// Contention on one pool: several threads that are not pool workers call
// parallel_reduce on the same pool at once, so their helper tasks interleave
// in its one queue. Every call must still return the sequential result bit
// for bit, and the pool must shut down cleanly afterwards. Under
// -DHARVEST_SANITIZE=thread this is the TSAN gate for the pool's queue.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "par/par.h"
#include "util/rng.h"

namespace harvest::par {
namespace {

TEST(ParallelFor, ConcurrentCallersShareOnePool) {
  constexpr std::size_t kCallers = 3;
  constexpr std::size_t kCallsPerCaller = 100;
  const std::size_t n = 20000;
  std::vector<double> values(n);
  util::Rng rng(77);
  for (auto& v : values) v = rng.uniform(-1.0, 1.0);

  auto run = [&](ThreadPool* pool) {
    return parallel_reduce(
        pool, ShardPlan::fixed(n, 256), 0.0,
        [&](std::size_t, std::size_t begin, std::size_t end) {
          double s = 0;
          for (std::size_t i = begin; i < end; ++i) {
            s += std::sin(values[i]) * 1e-3 + values[i];
          }
          return s;
        },
        [](double acc, double s) { return acc + s; });
  };
  const std::uint64_t expected = std::bit_cast<std::uint64_t>(run(nullptr));

  std::vector<std::vector<std::uint64_t>> results(kCallers);
  {
    ThreadPool pool(3);
    std::vector<std::thread> callers;
    for (std::size_t c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        for (std::size_t i = 0; i < kCallsPerCaller; ++i) {
          results[c].push_back(std::bit_cast<std::uint64_t>(run(&pool)));
        }
      });
    }
    for (auto& t : callers) t.join();
  }

  for (std::size_t c = 0; c < kCallers; ++c) {
    ASSERT_EQ(results[c].size(), kCallsPerCaller) << "caller " << c;
    for (std::size_t i = 0; i < kCallsPerCaller; ++i) {
      EXPECT_EQ(results[c][i], expected) << "caller " << c << " call " << i;
    }
  }
}

}  // namespace
}  // namespace harvest::par
