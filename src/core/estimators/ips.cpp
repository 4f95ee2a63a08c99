#include "core/estimators/ips.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/estimators/row_pass.h"
#include "util/string_util.h"

namespace harvest::core {

// All three estimators run an importance row rule over the one row pass
// (row_pass.h): it fills per-record contribution and weight slots over a
// thread-count-independent shard plan, so results are bit-identical for any
// --threads value.

Estimate IpsEstimator::evaluate(const ExplorationDataset& data,
                                const Policy& policy, double delta) const {
  detail::check_compatible(data, policy);
  const detail::Pass pass =
      detail::sweep_rows(data, [&](std::size_t i, const detail::Scratch&) {
        const ExplorationPoint& pt = data[i];
        return detail::importance_row(
            policy.probability(pt.context, pt.action), pt.propensity,
            pt.reward);
      });
  Estimate est = detail::finish(
      pass, delta, detail::importance_range(data, pass.max_abs));
  detail::report_weights(est, pass.weight);
  return est;
}

ClippedIpsEstimator::ClippedIpsEstimator(double max_weight)
    : max_weight_(max_weight) {
  if (max_weight <= 0) {
    throw std::invalid_argument("ClippedIpsEstimator: max_weight > 0");
  }
}

Estimate ClippedIpsEstimator::evaluate(const ExplorationDataset& data,
                                       const Policy& policy,
                                       double delta) const {
  detail::check_compatible(data, policy);
  // The importance row with w capped at M, flagged where the cap bites
  // (importance_row itself stays uncapped: its flag is a constant false).
  const detail::Pass pass =
      detail::sweep_rows(data, [&](std::size_t i, const detail::Scratch&) {
        const ExplorationPoint& pt = data[i];
        const double pi_a = policy.probability(pt.context, pt.action);
        const double raw = pi_a / pt.propensity;
        const double w = std::min(raw, max_weight_);
        return detail::Row{w * pt.reward, w, pi_a > 0, raw > max_weight_};
      });
  // Capped weights bound every contribution by the cap times the reward
  // range; the flagged share is the clipped fraction.
  Estimate est =
      detail::finish(pass, delta, data.reward_range().width() * max_weight_);
  detail::report_weights(est, pass.weight);
  return est;
}

std::string ClippedIpsEstimator::name() const {
  return "clipped-ips(" + util::format_double(max_weight_, 4) + ")";
}

Estimate SnipsEstimator::evaluate(const ExplorationDataset& data,
                                  const Policy& policy, double delta) const {
  detail::check_compatible(data, policy);
  // SNIPS is the w-weighted mean of the rewards, so its rows carry the IPS
  // weight and the reward itself; the delta-method pass below then reads
  // both from contiguous slots.
  const detail::Pass pass =
      detail::sweep_rows(data, [&](std::size_t i, const detail::Scratch&) {
        const ExplorationPoint& pt = data[i];
        detail::Row row = detail::importance_row(
            policy.probability(pt.context, pt.action), pt.propensity,
            pt.reward);
        row.contribution = pt.reward;
        return row;
      });
  // The weight sums stay sequential over the filled slots: O(n) adds are
  // cheap, and summing in point order keeps the value bit-stable across
  // both thread counts and refactors of the shard plan.
  double weight_sum = 0;
  double weighted_reward_sum = 0;
  for (std::size_t i = 0; i < pass.weight.size(); ++i) {
    weight_sum += pass.weight[i];
    weighted_reward_sum += pass.weight[i] * pass.contribution[i];
  }
  Estimate est;
  est.n = data.size();
  est.matched = pass.matched;
  detail::report_weights(est, pass.weight);
  if (weight_sum <= 0) {
    // The candidate never overlaps the logged actions; SNIPS is undefined.
    // Report the midpoint with a vacuous full-range interval.
    const auto& rr = data.reward_range();
    est.value = (rr.lo + rr.hi) / 2;
    est.stderr_value = rr.width() / 2;
    est.normal_ci = {rr.lo, rr.hi};
    est.bernstein_ci = {rr.lo, rr.hi};
    return est;
  }
  const double v = weighted_reward_sum / weight_sum;
  est.value = v;
  // Delta-method variance of the ratio estimator.
  const double n = static_cast<double>(data.size());
  const double wbar = weight_sum / n;
  double var_acc = 0;
  for (std::size_t i = 0; i < pass.weight.size(); ++i) {
    const double term = pass.weight[i] * (pass.contribution[i] - v) / wbar;
    var_acc += term * term;
  }
  const double var = var_acc / std::max(n - 1, 1.0);
  est.stderr_value = std::sqrt(var / n);
  const double z = stats::normal_critical(delta);
  est.normal_ci = {v - z * est.stderr_value, v + z * est.stderr_value};
  est.bernstein_ci = stats::bernstein_interval(v, data.size(), delta, var,
                                               data.reward_range().width());
  return est;
}

}  // namespace harvest::core
