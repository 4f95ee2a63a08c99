// Unit tests of the benchmark's own measurement kit: the histogram
// percentile helper, the open-loop pacer's lateness accounting, and the
// seeded generators.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "kit.h"

namespace roundbench {
namespace {

TEST(LatencyHistogram, ExactBelowOneMicrosecond) {
  LatencyHistogram h;
  for (std::uint64_t ns = 1; ns <= 1000; ++ns) h.add(ns);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_EQ(h.percentile(0.5), 500u);   // nearest rank: ceil(.5 * 1000)
  EXPECT_EQ(h.percentile(0.99), 990u);
  EXPECT_EQ(h.percentile(0.999), 999u);
  EXPECT_EQ(h.percentile(1.0), 1000u);
  EXPECT_EQ(h.percentile(0.0), 1u);
  EXPECT_DOUBLE_EQ(h.trimmed_mean(0.5), 250.5);   // mean of 1 .. 500
  EXPECT_DOUBLE_EQ(h.trimmed_mean(1.0), 500.5);
}

TEST(LatencyHistogram, BoundedRelativeErrorAboveOneMicrosecond) {
  for (std::uint64_t ns : {1024ull, 1500ull, 65'537ull, 5'497'610ull,
                           3'000'000'000ull}) {
    LatencyHistogram h;
    h.add(ns);
    const std::uint64_t p = h.percentile(0.5);
    EXPECT_LE(p, ns);
    EXPECT_GE(static_cast<double>(p), static_cast<double>(ns) * (1 - 1.0 / 64));
    EXPECT_EQ(h.max(), ns);
  }
}

TEST(LatencyHistogram, MergeAddsCounts) {
  LatencyHistogram a, b;
  for (int i = 0; i < 99; ++i) a.add(100);
  b.add(50'000);
  a.merge(b);
  EXPECT_EQ(a.count(), 100u);
  EXPECT_EQ(a.percentile(0.99), 100u);
  EXPECT_GT(a.percentile(1.0), 49'000u);
  EXPECT_EQ(a.max(), 50'000u);
  // 50'000 sits in the 512-ns bucket starting at 49'664: midpoint 49'919.5.
  EXPECT_DOUBLE_EQ(a.trimmed_mean(1.0), (99 * 100 + 49'919.5) / 100);
  EXPECT_DOUBLE_EQ(a.trimmed_mean(0.99), 100.0);  // the outlier trimmed
  EXPECT_EQ(LatencyHistogram{}.percentile(0.5), 0u);
  EXPECT_EQ(LatencyHistogram{}.trimmed_mean(0.99), 0.0);
}

TEST(LatencyHistogram, InterpolatedPercentileIsLinearInsideABucket) {
  LatencyHistogram h;
  for (int i = 0; i < 4; ++i) h.add(20);
  for (int i = 0; i < 4; ++i) h.add(30);
  EXPECT_DOUBLE_EQ(h.interpolated_percentile(0.25), 20.5);  // rank 2 of 4 at 20
  EXPECT_DOUBLE_EQ(h.interpolated_percentile(0.5), 21.0);   // top of 20's bucket
  EXPECT_DOUBLE_EQ(h.interpolated_percentile(0.75), 30.5);
  EXPECT_DOUBLE_EQ(h.interpolated_percentile(0.0), 20.0);
  LatencyHistogram wide;  // 2048 falls in a 32-ns bucket
  wide.add(2048);
  wide.add(2048);
  EXPECT_DOUBLE_EQ(wide.interpolated_percentile(0.5), 2048 + 16);
  EXPECT_EQ(LatencyHistogram{}.interpolated_percentile(0.5), 0.0);
}

TEST(Pacer, DueTimesFollowTheScheduleNotTheIssueTimes) {
  Pacer pacer(1000, 100);
  EXPECT_EQ(pacer.next_due(), 1000u);
  EXPECT_EQ(pacer.issue(1000), 1000u);   // on time
  EXPECT_EQ(pacer.issue(1350), 1100u);   // a stall: 250 ns late
  EXPECT_EQ(pacer.issue(1360), 1200u);   // still behind: 160 ns late
  EXPECT_EQ(pacer.issue(1300), 1300u);   // caught up exactly
  EXPECT_EQ(pacer.issue(1390), 1400u);   // early counts as on time
  EXPECT_EQ(pacer.issued(), 5u);
  EXPECT_EQ(pacer.lateness().count(), 5u);
  EXPECT_EQ(pacer.lateness().max(), 250u);
  EXPECT_EQ(pacer.lateness().percentile(0.6), 0u);
  EXPECT_EQ(pacer.lateness().percentile(0.8), 160u);
  EXPECT_EQ(pacer.next_due(), 1500u);
}

TEST(Pacer, BurstsShareADueTime) {
  Pacer pacer(0, 1000, 3);
  EXPECT_EQ(pacer.issue(0), 0u);
  EXPECT_EQ(pacer.issue(200), 0u);    // queued behind the first: 200 late
  EXPECT_EQ(pacer.issue(400), 0u);    // 400 late
  EXPECT_EQ(pacer.next_due(), 1000u);
  EXPECT_EQ(pacer.issue(1000), 1000u);
  EXPECT_EQ(pacer.lateness().max(), 400u);
  EXPECT_EQ(pacer.lateness().percentile(0.5), 0u);
  EXPECT_EQ(pacer.lateness().percentile(0.75), 200u);
}

std::vector<double> draw(std::uint64_t seed, std::uint64_t stream) {
  constexpr std::size_t kDim = 8;
  ContextStream contexts(seed, stream, kDim);
  std::vector<double> out(1000 * kDim);
  for (std::size_t i = 0; i < 1000; ++i) {
    contexts.next(std::span<double>(out.data() + i * kDim, kDim));
  }
  return out;
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(ContextStream, SameSeedSameBytesOtherSeedOtherBytes) {
  EXPECT_TRUE(same_bytes(draw(7, context_stream(3, 1)),
                         draw(7, context_stream(3, 1))));
  EXPECT_FALSE(same_bytes(draw(7, context_stream(3, 1)),
                          draw(8, context_stream(3, 1))));
  EXPECT_FALSE(same_bytes(draw(7, context_stream(3, 1)),
                          draw(7, context_stream(3, 0))));
  for (double v : draw(7, 0)) {
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Environment, RewardsDependOnTheNoiseSeedOnly) {
  const Environment a(9, 8), b(9, 8);
  const std::vector<double> x = draw(1, 0);
  const auto rewards = [&](const Environment& env, std::uint64_t seed) {
    harvest::util::Rng noise(seed);
    std::vector<double> out;
    for (std::size_t i = 0; i < 1000; ++i) {
      const auto action = static_cast<std::uint32_t>(i % 9);
      out.push_back(env.reward(std::span<const double>(&x[i * 8], 8), action,
                               noise));
    }
    return out;
  };
  EXPECT_TRUE(same_bytes(rewards(a, 5), rewards(b, 5)));
  EXPECT_FALSE(same_bytes(rewards(a, 5), rewards(a, 6)));
  for (double r : rewards(a, 5)) {
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 1.0);
  }
}

TEST(Result, PrintsTheDriverLine) {
  Result r;
  r.attempted = 10;
  r.failed = 1;
  r.add("round_ms", 1.5, "ms");
  EXPECT_EQ(r.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, "
            "\"metrics\": {\"round_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}");
  r.check(false, "broken");
  EXPECT_FALSE(r.correct());
}

}  // namespace
}  // namespace roundbench
