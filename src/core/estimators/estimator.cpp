#include "core/estimators/row_pass.h"
#include "stats/summary.h"

namespace harvest::core::detail {

Estimate finish(const Pass& pass, double delta, double range) {
  stats::Summary summary;
  for (double v : pass.contribution) summary.add(v);

  Estimate est;
  est.value = summary.mean();
  est.n = pass.contribution.size();
  est.matched = pass.matched;
  est.stderr_value = summary.stderr_mean();
  const double z = stats::normal_critical(delta);
  est.normal_ci = {est.value - z * est.stderr_value,
                   est.value + z * est.stderr_value};
  est.bernstein_ci = stats::bernstein_interval(
      est.value, est.n, delta, summary.variance(), range);
  est.clipped_fraction =
      static_cast<double>(pass.flagged) / static_cast<double>(est.n);
  return est;
}

void report_weights(Estimate& est, std::span<const double> weights) {
  const stats::WeightSummary summary = stats::summarize_weights(weights);
  est.ess = summary.ess();
  est.max_weight = summary.max;
}

}  // namespace harvest::core::detail
