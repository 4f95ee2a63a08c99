#include "kit.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "util/hash.h"

namespace roundbench {

std::size_t LatencyHistogram::bucket_of(std::uint64_t ns) {
  if (ns < kExact) return static_cast<std::size_t>(ns);
  const int octave = 63 - std::countl_zero(ns);  // >= 10
  const auto sub = static_cast<std::size_t>(
      (ns >> (octave - static_cast<int>(kSubBits))) & ((1u << kSubBits) - 1));
  return kExact + static_cast<std::size_t>(octave - 10) * (1u << kSubBits) +
         sub;
}

std::uint64_t LatencyHistogram::lower_edge(std::size_t bucket) {
  if (bucket < kExact) return bucket;
  const std::size_t i = bucket - kExact;
  const std::size_t octave = i / (1u << kSubBits) + 10;
  const std::uint64_t sub = i % (1u << kSubBits);
  return ((1u << kSubBits) + sub) << (octave - kSubBits);
}

void LatencyHistogram::add(std::uint64_t ns) {
  ++buckets_[bucket_of(ns)];
  ++count_;
  max_ = std::max(max_, ns);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
  max_ = std::max(max_, other.max_);
}

std::uint64_t LatencyHistogram::percentile(double q) const {
  if (count_ == 0) return 0;
  const auto rank = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(
          std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(count_))),
      1, count_);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen >= rank) return lower_edge(b);
  }
  return max_;
}

double LatencyHistogram::interpolated_percentile(double q) const {
  if (count_ == 0) return 0;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_);
  std::uint64_t before = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const std::uint64_t n = buckets_[b];
    if (n == 0 || static_cast<double>(before + n) < rank) {
      before += n;
      continue;
    }
    const double width =
        b + 1 < kBuckets ? static_cast<double>(lower_edge(b + 1) - lower_edge(b))
                         : 1.0;
    return static_cast<double>(lower_edge(b)) +
           width * (rank - static_cast<double>(before)) / static_cast<double>(n);
  }
  return static_cast<double>(max_);
}

double LatencyHistogram::trimmed_mean(double q) const {
  const double keep = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_);
  double sum = 0, taken = 0;
  for (std::size_t b = 0; b < kBuckets && taken < keep; ++b) {
    const std::uint64_t n = buckets_[b];
    if (n == 0) continue;
    const double width =
        b + 1 < kBuckets ? static_cast<double>(lower_edge(b + 1) - lower_edge(b))
                         : 1.0;
    // A bucket holds the integers lower_edge .. lower_edge + width - 1.
    const double mid = static_cast<double>(lower_edge(b)) + (width - 1) / 2;
    const double k = std::min(static_cast<double>(n), keep - taken);
    sum += k * mid;
    taken += k;
  }
  return taken > 0 ? sum / taken : 0;
}

std::uint64_t Pacer::issue(std::uint64_t now_ns) {
  const std::uint64_t due = next_due();
  lateness_.add(now_ns > due ? now_ns - due : 0);
  ++issued_;
  return due;
}

ContextStream::ContextStream(std::uint64_t seed, std::uint64_t stream,
                             std::size_t dim)
    : rng_(harvest::util::derive_stream_seed(seed, stream)), dim_(dim) {}

void ContextStream::next(std::span<double> out) {
  for (std::size_t d = 0; d < dim_; ++d) out[d] = rng_.uniform();
}

Environment::Environment(std::size_t num_actions, std::size_t dim)
    : dim_(dim) {
  // Geometry-keyed, seed-independent weights with clearly separated actions.
  harvest::util::Rng rng(harvest::util::derive_stream_seed(
      0x454E56u /* "ENV" */, (num_actions << 16) | dim));
  weights_.resize(num_actions * (dim + 1));
  for (std::size_t a = 0; a < num_actions; ++a) {
    double* w = &weights_[a * (dim + 1)];
    for (std::size_t i = 0; i <= dim; ++i) w[i] = rng.uniform(-0.4, 0.4);
    w[0] += 0.5;  // keep rewards centered inside [0, 1]
  }
}

double Environment::reward(std::span<const double> x, std::uint32_t action,
                           harvest::util::Rng& noise) const {
  const double* w = &weights_[action * (dim_ + 1)];
  double r = w[0];
  for (std::size_t i = 0; i < dim_; ++i) r += w[1 + i] * x[i];
  r += noise.uniform(-0.05, 0.05);
  return std::clamp(r, 0.0, 1.0);
}

std::string Result::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // Non-finite values are not JSON; report them as 0 (never expected).
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace roundbench
