#include "core/estimators/switch.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/estimators/direct.h"
#include "par/parallel.h"
#include "util/string_util.h"

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
  check_compatible(data, policy, *model_);
  const auto& pts = data.points();
  // Parallel fill of pre-sized slots over a thread-count-independent shard
  // plan (the estimator-zoo pattern, see ips.cpp): per-point contributions
  // and IPS-side weights land in their own slots, the order-sensitive
  // tallies merge in shard order, and the final moment/CI pass is
  // sequential — bit-identical for any --threads value.
  std::vector<double> contributions(pts.size());
  // IPS-side weights for the ESS/max-weight diagnostics; switched records
  // hold NaN and are compacted out below so tau = 0 reproduces the IPS
  // diagnostics exactly and tau > 1 reproduces DM's empty ones.
  std::vector<double> weights(pts.size());
  struct Partial {
    std::size_t matched = 0;
    std::size_t switched = 0;
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
          if (pt.propensity >= tau_) {
            const double pi_a = policy.probability(pt.context, pt.action);
            const double w = pi_a / pt.propensity;
            if (pi_a > 0) ++p.matched;
            contributions[i] = w * pt.reward;
            weights[i] = w;
            p.max_abs = std::max(p.max_abs, std::abs(w * pt.reward));
          } else {
            // Propensity too small for a trustworthy weight: this record's
            // contribution comes from the model, and it always "matches".
            ++p.matched;
            ++p.switched;
            contributions[i] =
                expected_model_reward(*model_, policy, pt.context, dist, rhat);
            weights[i] = std::numeric_limits<double>::quiet_NaN();
          }
        }
        return p;
      },
      [](Partial acc, const Partial& p) {
        acc.matched += p.matched;
        acc.switched += p.switched;
        acc.max_abs = std::max(acc.max_abs, p.max_abs);
        return acc;
      });

  // Compact the IPS-side weights (in point order, so diagnostics are
  // independent of the shard plan).
  std::vector<double> ips_weights;
  ips_weights.reserve(pts.size() - tally.switched);
  for (double w : weights) {
    if (!std::isnan(w)) ips_weights.push_back(w);
  }

  // Contribution range for the Bernstein CI: with no IPS-side records this
  // is exactly DM's reward-range width; otherwise it is IPS's weighted
  // range (which reduces to IPS's formula at tau = 0, where every record is
  // on the IPS side).
  const double width = data.reward_range().width();
  const double range =
      ips_weights.empty()
          ? width
          : std::max(width / std::max(data.min_propensity(), 1e-12),
                     tally.max_abs);
  Estimate est = finish(contributions, tally.matched, delta, range);
  attach_weight_diagnostics(est, ips_weights);
  est.clipped_fraction =
      static_cast<double>(tally.switched) / static_cast<double>(data.size());
  return est;
}

}  // namespace harvest::core
