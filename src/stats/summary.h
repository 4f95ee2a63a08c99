// Streaming moment accumulation (Welford) used by every metric recorder,
// and the one summary of importance weights.
#pragma once

#include <cstddef>
#include <limits>
#include <span>

namespace harvest::stats {

/// Numerically stable streaming mean/variance/min/max. O(1) memory; two
/// summaries can be merged (parallel collection, shard aggregation).
class Summary {
 public:
  void add(double x);

  /// Merges another summary into this one (Chan et al. pairwise update).
  void merge(const Summary& other);

  std::size_t count() const { return count_; }
  double mean() const;
  /// Unbiased sample variance; 0 when fewer than two observations.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return mean_ * static_cast<double>(count_); }

  /// Standard error of the mean; 0 when fewer than two observations.
  double stderr_mean() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Importance-weight health, summed in order: the figures behind
/// core::Estimate's ess/max_weight and obs::OpeDiagnostics.
struct WeightSummary {
  std::size_t count = 0;
  double sum = 0;
  double sum_sq = 0;
  double max = 0;  ///< largest weight; 0 when none is positive

  /// Kish effective sample size (Σw)²/Σw²; the count when Σw² is 0.
  double ess() const;
};

WeightSummary summarize_weights(std::span<const double> weights);

}  // namespace harvest::stats
