#include "core/estimators/sequence.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/estimators/ips.h"
#include "core/estimators/row_pass.h"
#include "par/parallel.h"

namespace harvest::core {

namespace {

/// Self-normalization: rescale contributions by the mean weight (weighted
/// importance sampling). Leaves the result untouched if the weight mass is
/// zero (no overlap).
void self_normalize(std::vector<double>& contributions,
                    const std::vector<double>& weights) {
  double mean_w = 0;
  for (double w : weights) mean_w += w;
  mean_w /= static_cast<double>(weights.size());
  if (mean_w <= 0) return;
  for (double& c : contributions) c /= mean_w;
}

/// The finish of the importance-sampling estimators: plain ones bound a
/// contribution by twice the largest seen, weighted ones by the reward
/// range.
Estimate finish_sampled(detail::Pass& pass, const TrajectoryDataset& data,
                        bool self_normalized, double delta) {
  if (self_normalized) self_normalize(pass.contribution, pass.weight);
  const double range = self_normalized
                           ? data.reward_range().width()
                           : 2 * std::max(pass.max_abs, 1e-12);
  return detail::finish(pass, delta, range);
}

}  // namespace

TrajectoryIpsEstimator::TrajectoryIpsEstimator(bool self_normalized)
    : self_normalized_(self_normalized) {}

std::string TrajectoryIpsEstimator::name() const {
  return self_normalized_ ? "trajectory-ips(weighted)" : "trajectory-ips";
}

Estimate TrajectoryIpsEstimator::evaluate(const TrajectoryDataset& data,
                                          const Policy& policy,
                                          double delta) const {
  detail::check_compatible(data, policy);
  detail::Pass pass =
      detail::sweep_rows(data, [&](std::size_t i, const detail::Scratch&) {
        const Trajectory& trajectory = data[i];
        // log-space product to survive long horizons.
        double log_weight = 0;
        bool dead = false;
        for (const auto& step : trajectory.steps) {
          const double pi_a = policy.probability(step.context, step.action);
          if (pi_a <= 0) {
            dead = true;
            break;
          }
          log_weight += std::log(pi_a) - std::log(step.propensity);
        }
        const double weight = dead ? 0.0 : std::exp(log_weight);
        return detail::Row{weight * trajectory.mean_reward(), weight, !dead,
                           false};
      });
  return finish_sampled(pass, data, self_normalized_, delta);
}

PerDecisionIpsEstimator::PerDecisionIpsEstimator(bool self_normalized)
    : self_normalized_(self_normalized) {}

std::string PerDecisionIpsEstimator::name() const {
  return self_normalized_ ? "per-decision-ips(weighted)" : "per-decision-ips";
}

Estimate PerDecisionIpsEstimator::evaluate(const TrajectoryDataset& data,
                                           const Policy& policy,
                                           double delta) const {
  detail::check_compatible(data, policy);
  detail::Pass pass =
      detail::sweep_rows(data, [&](std::size_t i, const detail::Scratch&) {
        const Trajectory& trajectory = data[i];
        double cumulative = 1.0;  // rho_{1:t}, updated stepwise
        double total = 0;
        double weight_mass = 0;  // mean of per-step cumulative weights
        bool any_match = false;
        for (const auto& step : trajectory.steps) {
          if (cumulative > 0) {
            const double pi_a = policy.probability(step.context, step.action);
            cumulative *= pi_a / step.propensity;
          }
          total += cumulative * step.reward;
          weight_mass += cumulative;
          any_match = any_match || cumulative > 0;
        }
        const auto h = static_cast<double>(trajectory.horizon());
        return detail::Row{total / h, weight_mass / h, any_match, false};
      });
  return finish_sampled(pass, data, self_normalized_, delta);
}

SequenceDoublyRobustEstimator::SequenceDoublyRobustEstimator(
    RewardModelPtr model, bool self_normalized)
    : model_(std::move(model)), self_normalized_(self_normalized) {
  if (!model_) {
    throw std::invalid_argument("SequenceDoublyRobustEstimator: null model");
  }
}

std::string SequenceDoublyRobustEstimator::name() const {
  return self_normalized_ ? "sequence-dr(weighted)" : "sequence-dr";
}

Estimate SequenceDoublyRobustEstimator::evaluate(const TrajectoryDataset& data,
                                                 const Policy& policy,
                                                 double delta) const {
  detail::check_compatible(data, policy, model_.get());
  // Pass 1: cumulative ratios rho_{1:t} per trajectory, laid end to end
  // from offset[i], and (for the WDR variant, Thomas & Brunskill 2016)
  // their per-step means across trajectories, used to normalize each
  // step's weights. The per-step sums accumulate per shard and merge in
  // shard order, so the value is fixed for any thread count.
  const std::size_t m = data.size();
  std::vector<std::size_t> offset(m + 1, 0);
  for (std::size_t i = 0; i < m; ++i) {
    offset[i + 1] = offset[i] + data[i].horizon();
  }
  std::vector<double> ratios(offset[m]);
  const std::size_t max_h = data.max_horizon();
  struct StepSums {
    std::vector<double> mean;
    std::vector<std::size_t> count;
  };
  StepSums totals = par::parallel_reduce(
      par::default_pool(), detail::trajectory_plan(m),
      StepSums{std::vector<double>(max_h, 0.0),
               std::vector<std::size_t>(max_h, 0)},
      [&](std::size_t, std::size_t begin, std::size_t end) {
        StepSums p{std::vector<double>(max_h, 0.0),
                   std::vector<std::size_t>(max_h, 0)};
        for (std::size_t i = begin; i < end; ++i) {
          const Trajectory& trajectory = data[i];
          double cumulative = 1.0;
          for (std::size_t t = 0; t < trajectory.horizon(); ++t) {
            const auto& step = trajectory.steps[t];
            if (cumulative > 0) {
              cumulative *= policy.probability(step.context, step.action) /
                            step.propensity;
            }
            ratios[offset[i] + t] = cumulative;
            p.mean[t] += cumulative;
            ++p.count[t];
          }
        }
        return p;
      },
      [&](StepSums acc, const StepSums& p) {
        for (std::size_t t = 0; t < max_h; ++t) {
          acc.mean[t] += p.mean[t];
          acc.count[t] += p.count[t];
        }
        return acc;
      });
  std::vector<double>& step_mean = totals.mean;
  for (std::size_t t = 0; t < max_h; ++t) {
    if (totals.count[t] > 0) {
      step_mean[t] /= static_cast<double>(totals.count[t]);
    }
  }
  auto normalized = [&](std::size_t i, std::size_t t) -> double {
    const double w = ratios[offset[i] + t];
    if (!self_normalized_) return w;
    return step_mean[t] > 0 ? w / step_mean[t] : 0.0;
  };

  // Pass 2: the per-trajectory DR contributions on the row pass.
  const detail::Pass pass =
      detail::sweep_rows(data, [&](std::size_t i, const detail::Scratch& s) {
        const Trajectory& trajectory = data[i];
        double total = 0;
        for (std::size_t t = 0; t < trajectory.horizon(); ++t) {
          const auto& step = trajectory.steps[t];
          const double v_hat =
              detail::model_row(*model_, policy, step.context, s).contribution;
          const double q_hat = s.rhat[step.action];
          const double w_prev = t == 0 ? 1.0 : normalized(i, t - 1);
          const double w = normalized(i, t);
          total += w_prev * v_hat + w * (step.reward - q_hat);
        }
        const bool matched =
            trajectory.horizon() > 0 && ratios[offset[i]] > 0;
        return detail::Row{
            total / static_cast<double>(trajectory.horizon()), 0, matched,
            false};
      });
  const double range = std::max(data.reward_range().width(),
                                2 * std::max(pass.max_abs, 1e-12));
  return detail::finish(pass, delta, range);
}

Estimate StepwiseIpsAdapter::evaluate(const TrajectoryDataset& data,
                                      const Policy& policy,
                                      double delta) const {
  detail::check_compatible(data, policy);
  // Flatten and delegate to the single-step estimator of §4 (which is
  // itself parallel over the flattened points).
  ExplorationDataset flat(data.num_actions(), data.reward_range());
  for (const auto& trajectory : data.trajectories()) {
    for (const auto& step : trajectory.steps) flat.add(step);
  }
  const IpsEstimator ips;
  return ips.evaluate(flat, policy, delta);
}

}  // namespace harvest::core
