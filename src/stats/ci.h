// Finite-sample confidence intervals used by the off-policy estimators.
#pragma once

#include <cstddef>

namespace harvest::stats {

/// A two-sided confidence interval around a point estimate.
struct Interval {
  double lo = 0;
  double hi = 0;
  double width() const { return hi - lo; }
  bool contains(double x) const { return x >= lo && x <= hi; }
};

/// Empirical-Bernstein half-width (Maurer & Pontil 2009): variance-adaptive,
/// much tighter than Hoeffding when the sample variance is small. `range` is
/// the width of the support (b - a).
double empirical_bernstein_halfwidth(std::size_t n, double delta,
                                     double sample_variance, double range);

/// Interval around `mean` using empirical Bernstein.
Interval bernstein_interval(double mean, std::size_t n, double delta,
                            double sample_variance, double range);

/// Two-sided normal critical value z_{1-delta/2} via the inverse error
/// function (Acklam's rational approximation).
double normal_critical(double delta);

}  // namespace harvest::stats
