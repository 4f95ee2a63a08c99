// The one row pass behind every estimator in this directory (internal).
//
// An estimator is a row rule — what one logged record, or one trajectory,
// contributes to the mean and under which importance weight — plus the
// range of those contributions and the shared finish. The point estimators
// compose two row terms (Dudík, Langford & Li 2011): the importance term
// w·r (IPS; with w capped, clipped IPS) and the model term
// sum_a pi(a|x) r̂(x, a) (DM). DR adds the two; SWITCH takes one or the
// other per record by its propensity.
//
// sweep_rows runs a rule over a thread-count-independent shard plan. Each
// shard writes only its own contribution and weight slots and keeps its own
// tallies; the tallies merge in shard order (integer sums and a max, exact
// under any association), and the finish's moment pass runs sequentially
// over the filled slots. So every estimate is bit-identical for any
// --threads value. Each shard allocates its scratch once, so a pass makes
// no per-row allocation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/dataset.h"
#include "core/estimators/direct.h"
#include "core/estimators/estimator.h"
#include "core/reward_model.h"
#include "core/trajectory.h"
#include "par/parallel.h"

namespace harvest::core::detail {

/// What a rule reports for one row.
struct Row {
  double contribution = 0;  ///< the value the estimate averages
  double weight = 0;        ///< the importance weight behind it
  bool matched = false;     ///< pi could have played what was logged
  bool flagged = false;     ///< weight clipped, or record sent to the model
};

/// Per-shard buffers a rule may fill: pi(·|x) and r̂(x, ·).
struct Scratch {
  std::span<double> dist;
  std::span<double> rhat;
};

/// A filled pass: one contribution and one weight slot per row, and the
/// exact tallies.
struct Pass {
  std::vector<double> contribution;
  std::vector<double> weight;
  std::size_t matched = 0;
  std::size_t flagged = 0;
  double max_abs = 0;  ///< max |contribution| over the rows not flagged
};

/// Trajectories cost a horizon of policy evaluations each, so their shards
/// are finer than the per-record plan.
inline par::ShardPlan trajectory_plan(std::size_t m) {
  return par::ShardPlan::fixed(m, /*min_per_shard=*/64);
}

/// Runs `rule(i, scratch) -> Row` for every row i of `plan`.
template <typename Rule>
Pass sweep_rows(const par::ShardPlan& plan, std::size_t num_actions,
                const Rule& rule) {
  Pass pass;
  pass.contribution.resize(plan.n);
  pass.weight.resize(plan.n);
  struct Tally {
    std::size_t matched = 0;
    std::size_t flagged = 0;
    double max_abs = 0;
  };
  const Tally tally = par::parallel_reduce(
      par::default_pool(), plan, Tally{},
      [&](std::size_t, std::size_t begin, std::size_t end) {
        Tally t;
        std::vector<double> buffer(2 * num_actions);
        const Scratch scratch{{buffer.data(), num_actions},
                              {buffer.data() + num_actions, num_actions}};
        for (std::size_t i = begin; i < end; ++i) {
          const Row row = rule(i, scratch);
          pass.contribution[i] = row.contribution;
          pass.weight[i] = row.weight;
          t.matched += row.matched;
          t.flagged += row.flagged;
          if (!row.flagged) {
            t.max_abs = std::max(t.max_abs, std::abs(row.contribution));
          }
        }
        return t;
      },
      [](Tally acc, const Tally& t) {
        acc.matched += t.matched;
        acc.flagged += t.flagged;
        acc.max_abs = std::max(acc.max_abs, t.max_abs);
        return acc;
      });
  pass.matched = tally.matched;
  pass.flagged = tally.flagged;
  pass.max_abs = tally.max_abs;
  return pass;
}

/// One row per logged record.
template <typename Rule>
Pass sweep_rows(const ExplorationDataset& data, const Rule& rule) {
  return sweep_rows(par::ShardPlan::fixed(data.size()), data.num_actions(),
                    rule);
}

/// One row per trajectory.
template <typename Rule>
Pass sweep_rows(const TrajectoryDataset& data, const Rule& rule) {
  return sweep_rows(trajectory_plan(data.size()), data.num_actions(), rule);
}

/// The importance term: w = pi(a|x)/p and c = w·reward.
inline Row importance_row(double pi_a, double propensity, double reward) {
  const double w = pi_a / propensity;
  return {w * reward, w, pi_a > 0, false};
}

/// The model term: sum_a pi(a|x) r̂(x, a), which matches by construction.
/// Leaves pi(·|x) and r̂(x, ·) in the scratch.
inline Row model_row(const RewardModel& model, const Policy& policy,
                     const FeatureVector& x, const Scratch& s) {
  return {expected_model_reward(model, policy, x, s.dist, s.rhat), 0, true,
          false};
}

/// Throws std::invalid_argument unless `data` has rows and the policy (and
/// the model, if given) act on its action set.
template <typename Data>
void check_compatible(const Data& data, const Policy& policy,
                      const RewardModel* model = nullptr) {
  if (data.empty()) throw std::invalid_argument("evaluate: empty dataset");
  if (policy.num_actions() != data.num_actions() ||
      (model != nullptr && model->num_actions() != data.num_actions())) {
    throw std::invalid_argument("evaluate: action-set size mismatch");
  }
}

/// The Bernstein range of importance-weighted contributions: rewards scaled
/// by weights can exceed the raw reward range by 1/min_p.
inline double importance_range(const ExplorationDataset& data,
                               double max_abs) {
  return std::max(
      data.reward_range().width() / std::max(data.min_propensity(), 1e-12),
      max_abs);
}

/// The shared finish: the mean of the contributions, its stderr and both
/// CIs (Bernstein over a contribution band of width `range`), plus matched
/// and the flagged share from the tallies.
Estimate finish(const Pass& pass, double delta, double range);

/// Sets est.ess and est.max_weight from the weights the estimate used.
void report_weights(Estimate& est, std::span<const double> weights);

}  // namespace harvest::core::detail
