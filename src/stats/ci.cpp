#include "stats/ci.h"

#include <cmath>
#include <stdexcept>

namespace harvest::stats {

namespace {
void check(std::size_t n, double delta) {
  if (n == 0) throw std::invalid_argument("confidence interval: n == 0");
  if (delta <= 0 || delta >= 1) {
    throw std::invalid_argument("confidence interval: delta in (0,1)");
  }
}
}  // namespace

double empirical_bernstein_halfwidth(std::size_t n, double delta,
                                     double sample_variance, double range) {
  check(n, delta);
  const double nd = static_cast<double>(n);
  const double log_term = std::log(3.0 / delta);
  return std::sqrt(2.0 * sample_variance * log_term / nd) +
         3.0 * range * log_term / nd;
}

Interval bernstein_interval(double mean, std::size_t n, double delta,
                            double sample_variance, double range) {
  const double h =
      empirical_bernstein_halfwidth(n, delta, sample_variance, range);
  return {mean - h, mean + h};
}

double normal_critical(double delta) {
  if (delta <= 0 || delta >= 1) {
    throw std::invalid_argument("normal_critical: delta in (0,1)");
  }
  // Inverse normal CDF at 1 - delta/2, Acklam's approximation (|rel err| <
  // 1.15e-9), plenty for CI construction.
  const double p = 1.0 - delta / 2.0;
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double p_low = 0.02425;
  double q, r, x;
  if (p < p_low) {
    q = std::sqrt(-2 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  } else if (p <= 1 - p_low) {
    q = p - 0.5;
    r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1);
  } else {
    q = std::sqrt(-2 * std::log(1 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
          c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  return x;
}

}  // namespace harvest::stats
