// Concurrency stress for the observability layer: 16 threads hammer the
// metric registry (lazy series creation included) and the span trace ring
// simultaneously. Assertions check conservation (no lost increments or
// observations); run under -DHARVEST_SANITIZE=thread this doubles as the
// TSAN gate for obs + par.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/recorder.h"
#include "par/thread_pool.h"

namespace harvest::obs {
namespace {

constexpr std::size_t kThreads = 16;
constexpr std::size_t kOpsPerThread = 2000;

TEST(ObsStress, RegistryCountersConserveUnderContention) {
  Registry registry;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      for (std::size_t i = 0; i < kOpsPerThread; ++i) {
        // Shared series: every thread races on the same counter.
        registry.counter("stress_shared_total").add(1);
        // Distinct series per thread: races lazy creation in the map.
        registry
            .counter("stress_labeled_total",
                     {{"thread", std::to_string(t)}})
            .add(1);
        registry.gauge("stress_gauge").set(static_cast<double>(i));
        registry.histogram("stress_hist").observe(static_cast<double>(i));
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_DOUBLE_EQ(registry.counter("stress_shared_total").value(),
                   static_cast<double>(kThreads * kOpsPerThread));
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_DOUBLE_EQ(
        registry
            .counter("stress_labeled_total", {{"thread", std::to_string(t)}})
            .value(),
        static_cast<double>(kOpsPerThread));
  }
  EXPECT_EQ(registry.histogram("stress_hist").count(),
            kThreads * kOpsPerThread);
  EXPECT_EQ(registry.size(), 2 + kThreads + 1);  // shared+gauge+hist+labels
}

TEST(ObsStress, TraceRingSurvivesConcurrentSpans) {
  Recorder::Options options;
  options.trace_capacity = 256;  // small trace: force constant wraparound
  options.ring_capacity = 1 << 10;
  Recorder recorder(options);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder] {
      for (std::size_t i = 0; i < kOpsPerThread / 4; ++i) {
        ScopedSpan outer(recorder, "stress.outer");
        ScopedSpan inner(recorder, "stress.inner");
      }
    });
  }
  for (auto& th : threads) th.join();

  const std::vector<Event> spans = recorder.snapshot_events();
  EXPECT_LE(spans.size(), recorder.trace_capacity());
  EXPECT_GT(spans.size(), 0u);
  for (const Event& span : spans) {
    const std::string_view name = recorder.name_of(span.name);
    EXPECT_TRUE(name == "stress.outer" || name == "stress.inner");
    EXPECT_EQ(span.kind, EventKind::kScopeSpan);
  }
}

TEST(ObsStress, PoolWorkersRecordingMetricsConserve) {
  // The real usage shape: par tasks record into the global-style registry
  // while the pool churns. Conservation must hold across submit/drain.
  Registry registry;
  {
    par::ThreadPool pool(8);
    for (std::size_t i = 0; i < 4000; ++i) {
      pool.submit([&registry] {
        registry.counter("pool_tasks_done").add(1);
        registry.histogram("pool_task_val").observe(1.0);
      });
    }
  }  // ~ThreadPool drains every submitted task
  EXPECT_DOUBLE_EQ(registry.counter("pool_tasks_done").value(), 4000.0);
  EXPECT_EQ(registry.histogram("pool_task_val").count(), 4000u);
}

}  // namespace
}  // namespace harvest::obs
