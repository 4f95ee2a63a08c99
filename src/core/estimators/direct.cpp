#include "core/estimators/direct.h"

#include <algorithm>
#include <stdexcept>

#include "core/estimators/row_pass.h"

namespace harvest::core {

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
  detail::check_compatible(data, policy, model_.get());
  // The model row rule over the one row pass (row_pass.h); the per-record
  // model sweep (|A| predictions per context) dominates.
  const detail::Pass pass =
      detail::sweep_rows(data, [&](std::size_t i, const detail::Scratch& s) {
        return detail::model_row(*model_, policy, data[i].context, s);
      });
  return detail::finish(pass, delta, data.reward_range().width());
}

DoublyRobustEstimator::DoublyRobustEstimator(RewardModelPtr model)
    : model_(std::move(model)) {
  if (!model_) throw std::invalid_argument("DoublyRobustEstimator: null model");
}

Estimate DoublyRobustEstimator::evaluate(const ExplorationDataset& data,
                                         const Policy& policy,
                                         double delta) const {
  detail::check_compatible(data, policy, model_.get());
  // The model row plus the importance row of the model's residual, both
  // read from one distribution_into and one predict_all per record.
  const detail::Pass pass =
      detail::sweep_rows(data, [&](std::size_t i, const detail::Scratch& s) {
        const ExplorationPoint& pt = data[i];
        const double dm =
            detail::model_row(*model_, policy, pt.context, s).contribution;
        detail::Row row = detail::importance_row(
            s.dist[pt.action], pt.propensity,
            pt.reward - s.rhat[pt.action]);
        row.contribution = dm + row.contribution;
        return row;
      });
  const double range =
      std::max(data.reward_range().width(), 2 * pass.max_abs);
  Estimate est = detail::finish(pass, delta, range);
  // The IPS-correction weights drive DR's variance; surface the same
  // weight-health diagnostics the pure importance-weighted estimators
  // report, so a DR estimate resting on a tiny ESS is visible too.
  detail::report_weights(est, pass.weight);
  return est;
}

}  // namespace harvest::core
