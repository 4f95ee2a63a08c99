#include "core/estimators/direct.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "par/parallel.h"

namespace harvest::core {

namespace {
void check_compatible(const ExplorationDataset& data, const Policy& policy,
                      const RewardModel& model) {
  if (data.empty()) throw std::invalid_argument("evaluate: empty dataset");
  if (policy.num_actions() != data.num_actions() ||
      model.num_actions() != data.num_actions()) {
    throw std::invalid_argument("evaluate: action-set size mismatch");
  }
}
}  // namespace

double expected_model_reward(const RewardModel& model, const Policy& policy,
                             const FeatureVector& x, std::span<double> dist,
                             std::span<double> rhat) {
  policy.distribution_into(x, dist);
  model.predict_all(x, rhat);
  double v = 0;
  for (std::size_t a = 0; a < dist.size(); ++a) {
    if (dist[a] > 0) v += dist[a] * rhat[a];
  }
  return v;
}

DirectMethodEstimator::DirectMethodEstimator(RewardModelPtr model)
    : model_(std::move(model)) {
  if (!model_) throw std::invalid_argument("DirectMethodEstimator: null model");
}

Estimate DirectMethodEstimator::evaluate(const ExplorationDataset& data,
                                         const Policy& policy,
                                         double delta) const {
  check_compatible(data, policy, *model_);
  // The per-point model sweep (|A| predictions per context) dominates; each
  // shard fills its own contribution slots, so the parallel fill is
  // bit-identical to the sequential one.
  const auto& pts = data.points();
  std::vector<double> contributions(pts.size());
  par::parallel_for(par::default_pool(), par::ShardPlan::fixed(pts.size()),
                    [&](std::size_t, std::size_t begin, std::size_t end) {
                      std::vector<double> dist(data.num_actions());
                      std::vector<double> rhat(data.num_actions());
                      for (std::size_t i = begin; i < end; ++i) {
                        contributions[i] = expected_model_reward(
                            *model_, policy, pts[i].context, dist, rhat);
                      }
                    });
  return finish(contributions, data.size(), delta,
                data.reward_range().width());
}

DoublyRobustEstimator::DoublyRobustEstimator(RewardModelPtr model)
    : model_(std::move(model)) {
  if (!model_) throw std::invalid_argument("DoublyRobustEstimator: null model");
}

Estimate DoublyRobustEstimator::evaluate(const ExplorationDataset& data,
                                         const Policy& policy,
                                         double delta) const {
  check_compatible(data, policy, *model_);
  const auto& pts = data.points();
  std::vector<double> contributions(pts.size()), weights(pts.size());
  struct Partial {
    std::size_t matched = 0;
    double max_abs = 0;
  };
  const Partial tally = par::parallel_reduce(
      par::default_pool(), par::ShardPlan::fixed(pts.size()), Partial{},
      [&](std::size_t, std::size_t begin, std::size_t end) {
        Partial p;
        std::vector<double> dist(data.num_actions());
        std::vector<double> rhat(data.num_actions());
        for (std::size_t i = begin; i < end; ++i) {
          const auto& pt = pts[i];
          const double dm =
              expected_model_reward(*model_, policy, pt.context, dist, rhat);
          const double pi_a = dist[pt.action];
          if (pi_a > 0) ++p.matched;
          const double w = pi_a / pt.propensity;
          const double correction = w * (pt.reward - rhat[pt.action]);
          contributions[i] = dm + correction;
          weights[i] = w;
          p.max_abs = std::max(p.max_abs, std::abs(dm + correction));
        }
        return p;
      },
      [](Partial acc, const Partial& p) {
        acc.matched += p.matched;
        acc.max_abs = std::max(acc.max_abs, p.max_abs);
        return acc;
      });
  const double range =
      std::max(data.reward_range().width(), 2 * tally.max_abs);
  Estimate est = finish(contributions, tally.matched, delta, range);
  // The IPS-correction weights drive DR's variance; surface the same
  // weight-health diagnostics the pure importance-weighted estimators
  // report, so a DR estimate resting on a tiny ESS is visible too.
  attach_weight_diagnostics(est, weights);
  return est;
}

}  // namespace harvest::core
