#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace harvest::sim {
namespace {

TEST(EventQueueTest, OrdersByTime) {
  EventQueue queue;
  std::vector<int> order;
  queue.push(3.0, [&] { order.push_back(3); });
  queue.push(1.0, [&] { order.push_back(1); });
  queue.push(2.0, [&] { order.push_back(2); });
  while (!queue.empty()) queue.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoAtEqualTimestamps) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.push(5.0, [&order, i] { order.push_back(i); });
  }
  while (!queue.empty()) queue.pop().action();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, NextTimeAndErrors) {
  EventQueue queue;
  EXPECT_THROW(queue.next_time(), std::logic_error);
  EXPECT_THROW(queue.pop(), std::logic_error);
  EXPECT_THROW(queue.push(1.0, nullptr), std::invalid_argument);
  queue.push(7.5, [] {});
  EXPECT_DOUBLE_EQ(queue.next_time(), 7.5);
}

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator simulator;
  std::vector<double> seen;
  simulator.schedule(2.0, [&] { seen.push_back(simulator.now()); });
  simulator.schedule(1.0, [&] { seen.push_back(simulator.now()); });
  simulator.run();
  EXPECT_EQ(seen, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(simulator.events_processed(), 2u);
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator simulator;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) simulator.schedule(1.0, chain);
  };
  simulator.schedule(1.0, chain);
  simulator.run();
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(simulator.now(), 5.0);
}

TEST(SimulatorTest, RunUntilStopsAtHorizon) {
  Simulator simulator;
  int fired = 0;
  simulator.schedule(1.0, [&] { ++fired; });
  simulator.schedule(10.0, [&] { ++fired; });
  simulator.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(simulator.now(), 5.0);
  EXPECT_EQ(simulator.events_pending(), 1u);
  simulator.run_until(20.0);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, RejectsPastScheduling) {
  Simulator simulator;
  simulator.schedule(1.0, [] {});
  simulator.run();
  EXPECT_THROW(simulator.schedule(-0.5, [] {}), std::invalid_argument);
  EXPECT_THROW(simulator.schedule_at(0.5, [] {}), std::invalid_argument);
  EXPECT_THROW(simulator.run_until(0.5), std::invalid_argument);
}

TEST(SimulatorTest, ClearDropsPending) {
  Simulator simulator;
  int fired = 0;
  simulator.schedule(1.0, [&] { ++fired; });
  simulator.clear();
  simulator.run();
  EXPECT_EQ(fired, 0);
}

}  // namespace
}  // namespace harvest::sim
