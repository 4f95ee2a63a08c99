// Measurement kit of the round-ledger benchmark: a median shorthand, a
// bucketed latency histogram, the open-loop pacer, the seeded input
// generators, the simulated reward environment, and the result record
// roundbench prints. Nothing here calls into the harvest layers except
// stats::quantile, util::Rng and util::derive_stream_seed, so it is
// unit-tested on its own (tests/kit_test.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "stats/quantile.h"
#include "util/rng.h"

namespace roundbench {

// ---------------------------------------------------------------------------
// Order statistics
// ---------------------------------------------------------------------------

/// Type-7 median (stats::quantile); throws on an empty input.
inline double median(const std::vector<double>& values) {
  return harvest::stats::quantile(values, 0.5);
}

/// Latency histogram over nanoseconds. Values below 1024 ns get one bucket
/// each; larger values fall into 64 buckets per power of two, so a reported
/// percentile is exact below 1 us and within 1/64 (1.6%) above. Fixed size,
/// no allocation after construction: safe to fill from a hot loop.
class LatencyHistogram {
 public:
  void add(std::uint64_t ns);
  void merge(const LatencyHistogram& other);

  std::uint64_t count() const { return count_; }
  std::uint64_t max() const { return max_; }
  /// Mean of the smallest q * count values, each read at its bucket's
  /// midpoint (exact below 1 us); q = 1 gives the mean of all. 0 when empty.
  double trimmed_mean(double q) const;
  /// Nearest-rank percentile: the lower edge of the first bucket whose
  /// cumulative count reaches ceil(q * count). 0 when empty.
  std::uint64_t percentile(double q) const;
  /// Percentile read as grouped data: linear inside the bucket holding rank
  /// q * count, so percentiles of whole-nanosecond samples differ from run to
  /// run by fractions of a nanosecond, not by whole ones or not at all.
  /// 0 when empty.
  double interpolated_percentile(double q) const;

 private:
  static constexpr std::size_t kExact = 1024;
  static constexpr std::size_t kSubBits = 6;  // 64 buckets per octave
  static constexpr std::size_t kBuckets = kExact + (64 - 10) * (1u << kSubBits);
  static std::size_t bucket_of(std::uint64_t ns);
  static std::uint64_t lower_edge(std::size_t bucket);

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t max_ = 0;
};

// ---------------------------------------------------------------------------
// Open-loop pacing
// ---------------------------------------------------------------------------

/// Open-loop schedule: operations arrive in bursts of `burst`, one burst
/// every `interval`, so operation i is due at start + (i / burst) * interval
/// whatever happened to earlier operations; a stall delays every operation
/// queued behind it. Callers time each operation from its due time, and the
/// pacer records how late the generator itself issued each one.
class Pacer {
 public:
  Pacer(std::uint64_t start_ns, std::uint64_t interval_ns,
        std::uint64_t burst = 1)
      : start_ns_(start_ns), interval_ns_(interval_ns), burst_(burst) {}

  /// Due time of the next operation.
  std::uint64_t next_due() const {
    return start_ns_ + (issued_ / burst_) * interval_ns_;
  }
  /// Records that the next operation was issued at `now_ns`, advances the
  /// schedule, and returns that operation's due time. Issuing early (before
  /// the due time) counts zero lateness.
  std::uint64_t issue(std::uint64_t now_ns);

  std::uint64_t issued() const { return issued_; }
  /// Distribution of issue time minus due time, one sample per operation.
  const LatencyHistogram& lateness() const { return lateness_; }

 private:
  std::uint64_t start_ns_;
  std::uint64_t interval_ns_;
  std::uint64_t burst_;
  std::uint64_t issued_ = 0;
  LatencyHistogram lateness_;
};

// ---------------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------------

/// One stream of contexts, uniform on [0, 1)^dim. The stream is a pure
/// function of (seed, stream): the same pair yields byte-identical contexts.
class ContextStream {
 public:
  ContextStream(std::uint64_t seed, std::uint64_t stream, std::size_t dim);
  void next(std::span<double> out);

 private:
  harvest::util::Rng rng_;
  std::size_t dim_;
};

/// Stream ids: decider t of round r draws contexts from context_stream(r, t)
/// and reward noise from noise_stream(r, t).
inline std::uint64_t context_stream(std::uint64_t round, std::uint64_t t) {
  return (round << 8) | (2 * t);
}
inline std::uint64_t noise_stream(std::uint64_t round, std::uint64_t t) {
  return (round << 8) | (2 * t + 1);
}

/// The simulated system the decisions act on: action a in context x pays
/// clamp01(w_a . [1, x] + U(-0.05, 0.05)), as in tools/harvest_serve. The
/// weights depend only on the geometry, never on the workload seed, so the
/// seed varies the inputs and not the system being optimized.
class Environment {
 public:
  Environment(std::size_t num_actions, std::size_t dim);
  double reward(std::span<const double> x, std::uint32_t action,
                harvest::util::Rng& noise) const;

 private:
  std::size_t dim_;
  std::vector<double> weights_;  // num_actions rows of dim+1, bias first
};

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports: the output checks, the attempt/failure ledger, and
/// the metrics of the requested mode (end-to-end untraced, per-layer traced).
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> violations;  ///< failed output checks

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a violation unless `ok`.
  void check(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
  bool correct() const { return violations.empty(); }
  /// The single JSON line the driver reads.
  std::string to_json() const;
};

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

}  // namespace roundbench
