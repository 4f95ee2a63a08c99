#include "core/estimators/sequence.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/estimators/direct.h"
#include "core/estimators/ips.h"
#include "par/parallel.h"
#include "stats/summary.h"

namespace harvest::core {

void SequenceEstimator::check_compatible(const TrajectoryDataset& data,
                                         const Policy& policy) {
  if (data.empty()) {
    throw std::invalid_argument("SequenceEstimator: empty dataset");
  }
  if (policy.num_actions() != data.num_actions()) {
    throw std::invalid_argument(
        "SequenceEstimator: action-set size mismatch");
  }
}

namespace {

/// Trajectories cost a full horizon of policy evaluations each, so shards
/// are finer-grained than the per-point plan.
par::ShardPlan trajectory_plan(std::size_t m) {
  return par::ShardPlan::fixed(m, /*min_per_shard=*/64);
}

/// Per-point CI machinery shared with OffPolicyEstimator::finish, but the
/// contributions here are per-*trajectory*.
Estimate finish(const std::vector<double>& contributions, std::size_t matched,
                double delta, double range) {
  stats::Summary summary;
  for (double v : contributions) summary.add(v);
  Estimate est;
  est.value = summary.mean();
  est.n = contributions.size();
  est.matched = matched;
  est.stderr_value = summary.stderr_mean();
  const double z = stats::normal_critical(delta);
  est.normal_ci = {est.value - z * est.stderr_value,
                   est.value + z * est.stderr_value};
  est.bernstein_ci = stats::bernstein_interval(est.value, est.n, delta,
                                               summary.variance(), range);
  return est;
}

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

struct MatchMax {
  std::size_t matched = 0;
  double max_abs = 1e-12;
};

MatchMax merge_match_max(MatchMax acc, const MatchMax& p) {
  acc.matched += p.matched;
  acc.max_abs = std::max(acc.max_abs, p.max_abs);
  return acc;
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
  check_compatible(data, policy);
  const std::size_t m = data.size();
  std::vector<double> contributions(m), weights(m);
  const MatchMax tally = par::parallel_reduce(
      par::default_pool(), trajectory_plan(m), MatchMax{},
      [&](std::size_t, std::size_t begin, std::size_t end) {
        MatchMax p;
        for (std::size_t i = begin; i < end; ++i) {
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
          if (!dead) ++p.matched;
          weights[i] = weight;
          contributions[i] = weight * trajectory.mean_reward();
          p.max_abs = std::max(p.max_abs, std::abs(contributions[i]));
        }
        return p;
      },
      merge_match_max);
  if (self_normalized_) self_normalize(contributions, weights);
  const double range =
      self_normalized_ ? data.reward_range().width() : 2 * tally.max_abs;
  return finish(contributions, tally.matched, delta, range);
}

PerDecisionIpsEstimator::PerDecisionIpsEstimator(bool self_normalized)
    : self_normalized_(self_normalized) {}

std::string PerDecisionIpsEstimator::name() const {
  return self_normalized_ ? "per-decision-ips(weighted)" : "per-decision-ips";
}

Estimate PerDecisionIpsEstimator::evaluate(const TrajectoryDataset& data,
                                           const Policy& policy,
                                           double delta) const {
  check_compatible(data, policy);
  const std::size_t m = data.size();
  std::vector<double> contributions(m), weights(m);
  const MatchMax tally = par::parallel_reduce(
      par::default_pool(), trajectory_plan(m), MatchMax{},
      [&](std::size_t, std::size_t begin, std::size_t end) {
        MatchMax p;
        for (std::size_t i = begin; i < end; ++i) {
          const Trajectory& trajectory = data[i];
          double cumulative = 1.0;  // rho_{1:t}, updated stepwise
          double total = 0;
          double weight_mass = 0;  // mean of per-step cumulative weights
          bool any_match = false;
          for (const auto& step : trajectory.steps) {
            if (cumulative > 0) {
              const double pi_a =
                  policy.probability(step.context, step.action);
              cumulative *= pi_a / step.propensity;
            }
            total += cumulative * step.reward;
            weight_mass += cumulative;
            any_match = any_match || cumulative > 0;
          }
          const auto h = static_cast<double>(trajectory.horizon());
          if (any_match) ++p.matched;
          contributions[i] = total / h;
          weights[i] = weight_mass / h;
          p.max_abs = std::max(p.max_abs, std::abs(contributions[i]));
        }
        return p;
      },
      merge_match_max);
  if (self_normalized_) self_normalize(contributions, weights);
  const double range =
      self_normalized_ ? data.reward_range().width() : 2 * tally.max_abs;
  return finish(contributions, tally.matched, delta, range);
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
  check_compatible(data, policy);
  if (model_->num_actions() != data.num_actions()) {
    throw std::invalid_argument("SequenceDoublyRobustEstimator: model/action "
                                "set size mismatch");
  }
  // Pass 1: cumulative ratios rho_{1:t} per trajectory, and (for the WDR
  // variant, Thomas & Brunskill 2016) their per-step means across
  // trajectories, used to normalize each step's weights. The per-step sums
  // accumulate per shard and merge in shard order, so the value is fixed
  // for any thread count.
  const std::size_t m = data.size();
  std::vector<std::vector<double>> ratios(m);
  const std::size_t max_h = data.max_horizon();
  struct StepSums {
    std::vector<double> mean;
    std::vector<std::size_t> count;
    std::size_t matched = 0;
  };
  const par::ShardPlan plan = trajectory_plan(m);
  StepSums totals = par::parallel_reduce(
      par::default_pool(), plan,
      StepSums{std::vector<double>(max_h, 0.0),
               std::vector<std::size_t>(max_h, 0), 0},
      [&](std::size_t, std::size_t begin, std::size_t end) {
        StepSums p{std::vector<double>(max_h, 0.0),
                   std::vector<std::size_t>(max_h, 0), 0};
        for (std::size_t i = begin; i < end; ++i) {
          const Trajectory& trajectory = data[i];
          ratios[i].reserve(trajectory.horizon());
          double cumulative = 1.0;
          for (std::size_t t = 0; t < trajectory.horizon(); ++t) {
            const auto& step = trajectory.steps[t];
            if (cumulative > 0) {
              cumulative *= policy.probability(step.context, step.action) /
                            step.propensity;
            }
            ratios[i].push_back(cumulative);
            p.mean[t] += cumulative;
            ++p.count[t];
          }
          if (!ratios[i].empty() && ratios[i].front() > 0) ++p.matched;
        }
        return p;
      },
      [&](StepSums acc, const StepSums& p) {
        for (std::size_t t = 0; t < max_h; ++t) {
          acc.mean[t] += p.mean[t];
          acc.count[t] += p.count[t];
        }
        acc.matched += p.matched;
        return acc;
      });
  std::vector<double>& step_mean = totals.mean;
  for (std::size_t t = 0; t < max_h; ++t) {
    if (totals.count[t] > 0) {
      step_mean[t] /= static_cast<double>(totals.count[t]);
    }
  }
  auto normalized = [&](std::size_t i, std::size_t t) -> double {
    const double w = ratios[i][t];
    if (!self_normalized_) return w;
    return step_mean[t] > 0 ? w / step_mean[t] : 0.0;
  };

  // Pass 2: per-trajectory DR contributions (one slot per trajectory).
  std::vector<double> contributions(m);
  const double max_abs = par::parallel_reduce(
      par::default_pool(), plan, 1e-12,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        double shard_max = 1e-12;
        std::vector<double> dist(data.num_actions());
        std::vector<double> rhat(data.num_actions());
        for (std::size_t i = begin; i < end; ++i) {
          const Trajectory& trajectory = data[i];
          double total = 0;
          for (std::size_t t = 0; t < trajectory.horizon(); ++t) {
            const auto& step = trajectory.steps[t];
            const double v_hat = expected_model_reward(
                *model_, policy, step.context, dist, rhat);
            const double q_hat = rhat[step.action];
            const double w_prev =
                t == 0 ? 1.0 : normalized(i, t - 1);
            const double w = normalized(i, t);
            total += w_prev * v_hat + w * (step.reward - q_hat);
          }
          contributions[i] =
              total / static_cast<double>(trajectory.horizon());
          shard_max = std::max(shard_max, std::abs(contributions[i]));
        }
        return shard_max;
      },
      [](double acc, double p) { return std::max(acc, p); });
  const double range = std::max(data.reward_range().width(), 2 * max_abs);
  return finish(contributions, totals.matched, delta, range);
}

Estimate StepwiseIpsAdapter::evaluate(const TrajectoryDataset& data,
                                      const Policy& policy,
                                      double delta) const {
  check_compatible(data, policy);
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
