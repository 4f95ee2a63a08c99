// Concurrency hammering for the flight recorder (runs under
// HARVEST_SANITIZE=thread in CI): multi-producer loss accounting and the
// drain-while-recording race.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "obs/recorder.h"

namespace harvest::obs {
namespace {

Recorder::Options options_for(std::size_t ring, std::size_t trace,
                              bool self_drain) {
  Recorder::Options options;
  options.ring_capacity = ring;
  options.trace_capacity = trace;
  options.self_drain = self_drain;
  return options;
}

TEST(RecorderStressTest, MultiProducerLosesNothingBelowCapacity) {
  // Every producer stays within its own ring's capacity and the collector
  // never runs until the end: all events must land, none dropped.
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 1000;
  Recorder recorder(options_for(2048, kThreads * kPerThread, false));
  const std::uint32_t name = recorder.intern("stress.emit");

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, name, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(recorder.emit_instant(name, t, i));
      }
    });
  }
  for (auto& t : threads) t.join();

  const DrainStats stats = recorder.drain();
  EXPECT_EQ(stats.collected, kThreads * kPerThread);
  EXPECT_EQ(recorder.ring_dropped_total(), 0u);
  EXPECT_EQ(recorder.trace_evicted_total(), 0u);
  EXPECT_EQ(recorder.num_threads(), kThreads);

  // Per-thread event counts reconstruct exactly from the payload.
  std::vector<std::size_t> per_thread(kThreads, 0);
  for (const Event& e : recorder.snapshot_events()) {
    ASSERT_LT(e.a, kThreads);
    ++per_thread[e.a];
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(per_thread[t], kPerThread) << "thread " << t;
  }
}

TEST(RecorderStressTest, DropAccountingIsExactAboveCapacity) {
  // Self-drain off and no collector: each thread attempts far more than its
  // ring holds. Whatever was not pushed must be counted, exactly.
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 5000;
  Recorder recorder(options_for(256, 1 << 16, false));
  const std::uint32_t name = recorder.intern("stress.drop");

  std::atomic<std::uint64_t> pushed{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, &pushed, name, t] {
      std::uint64_t mine = 0;
      for (std::size_t i = 0; i < kPerThread; ++i) {
        if (recorder.emit_instant(name, t, i)) ++mine;
      }
      pushed.fetch_add(mine, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();

  // pushed + dropped == attempted, with no slack in either direction.
  EXPECT_EQ(pushed.load() + recorder.ring_dropped_total(),
            kThreads * kPerThread);
  const DrainStats stats = recorder.drain();
  EXPECT_EQ(stats.collected, pushed.load());
}

TEST(RecorderStressTest, DrainWhileRecordingIsRaceFree) {
  // Producers hammer their rings (self-drain on) while a collector thread
  // drains concurrently — the TSAN target for the SPSC handoff. Every event
  // is either collected or still buffered; nothing drops or duplicates.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 20000;
  Recorder recorder(options_for(512, 1 << 18, true));
  const std::uint32_t name = recorder.intern("stress.race");

  std::atomic<bool> stop{false};
  std::thread collector([&recorder, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      recorder.drain();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, name, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(recorder.emit_instant(name, t, i));
      }
    });
  }
  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_release);
  collector.join();

  EXPECT_EQ(recorder.ring_dropped_total(), 0u);
  EXPECT_EQ(recorder.snapshot_events().size(), kThreads * kPerThread);
}

TEST(RecorderStressTest, ConcurrentInterningIsStable) {
  Recorder recorder(options_for(256, 1 << 12, true));
  constexpr std::size_t kThreads = 8;
  std::vector<std::uint32_t> ids(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, &ids, t] {
      for (int i = 0; i < 200; ++i) {
        ids[t] = recorder.intern("shared.name");
        recorder.intern("name." + std::to_string(t));
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t t = 1; t < kThreads; ++t) EXPECT_EQ(ids[t], ids[0]);
  EXPECT_EQ(recorder.name_of(ids[0]), "shared.name");
}

}  // namespace
}  // namespace harvest::obs
