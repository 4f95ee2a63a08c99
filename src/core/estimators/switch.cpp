#include "core/estimators/switch.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/estimators/row_pass.h"
#include "util/string_util.h"

namespace harvest::core {

SwitchEstimator::SwitchEstimator(RewardModelPtr model, double tau)
    : model_(std::move(model)), tau_(tau) {
  if (!model_) throw std::invalid_argument("SwitchEstimator: null model");
  if (!(tau >= 0)) {
    throw std::invalid_argument("SwitchEstimator: tau must be >= 0");
  }
}

std::string SwitchEstimator::name() const {
  return "switch(" + util::format_double(tau_, 4) + ")";
}

Estimate SwitchEstimator::evaluate(const ExplorationDataset& data,
                                   const Policy& policy, double delta) const {
  detail::check_compatible(data, policy, model_.get());
  // Per record, the importance row or the model row (row_pass.h). A
  // switched record always "matches", is flagged, and carries a NaN weight
  // so the weight diagnostics skip it: tau = 0 reproduces IPS's diagnostics
  // exactly and tau > 1 DM's empty ones.
  detail::Pass pass =
      detail::sweep_rows(data, [&](std::size_t i, const detail::Scratch& s) {
        const ExplorationPoint& pt = data[i];
        if (pt.propensity >= tau_) {
          return detail::importance_row(
              policy.probability(pt.context, pt.action), pt.propensity,
              pt.reward);
        }
        detail::Row row = detail::model_row(*model_, policy, pt.context, s);
        row.weight = std::numeric_limits<double>::quiet_NaN();
        row.flagged = true;
        return row;
      });
  // Compact the IPS-side weights in point order, so the diagnostics are
  // independent of the shard plan.
  std::erase_if(pass.weight, [](double w) { return std::isnan(w); });

  // Contribution range for the Bernstein CI: with no IPS-side records this
  // is exactly DM's reward-range width; otherwise it is IPS's weighted
  // range over the unflagged records (IPS's own formula at tau = 0, where
  // every record is on the IPS side).
  const double range =
      pass.weight.empty() ? data.reward_range().width()
                          : detail::importance_range(data, pass.max_abs);
  Estimate est = detail::finish(pass, delta, range);
  detail::report_weights(est, pass.weight);
  return est;
}

}  // namespace harvest::core
