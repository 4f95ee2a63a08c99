#include "stats/summary.h"

#include <algorithm>
#include <cmath>

namespace harvest::stats {

void Summary::add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void Summary::merge(const Summary& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Summary::mean() const { return count_ == 0 ? 0.0 : mean_; }

double Summary::variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double Summary::stddev() const { return std::sqrt(variance()); }

double Summary::stderr_mean() const {
  return count_ < 2 ? 0.0 : stddev() / std::sqrt(static_cast<double>(count_));
}

double WeightSummary::ess() const {
  return sum_sq > 0 ? (sum * sum) / sum_sq : static_cast<double>(count);
}

WeightSummary summarize_weights(std::span<const double> weights) {
  WeightSummary s;
  s.count = weights.size();
  for (double w : weights) {
    s.sum += w;
    s.sum_sq += w * w;
    if (w > s.max) s.max = w;
  }
  return s;
}

}  // namespace harvest::stats
