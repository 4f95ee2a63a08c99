// Ablation — estimator bias/variance on the machine-health scenario:
// IPS vs clipped IPS vs SNIPS vs Direct Method vs Doubly Robust vs SWITCH.
// Motivates §5's plan to lean on doubly-robust techniques: DR keeps IPS's
// low bias while shrinking its variance via the reward model.
//
// Two logging regimes are measured with the same estimator zoo:
//   * uniform logging — every weight is exactly |A|, the paper's Fig. 3
//     setting, where plain IPS is already usable;
//   * low overlap — eps-greedy logging around the wait-max default with a
//     small epsilon, so the actions the evaluated policy prefers are logged
//     with propensity eps/|A| and importance weights reach |A|/eps. Here
//     clipping buys variance at a steep bias cost, and the model-assisted
//     estimators (DR, SWITCH) should win outright on RMSE.
#include <cmath>
#include <iostream>
#include <map>
#include <memory>

#include "bench/bench_util.h"
#include "harvest/harvest.h"
#include "stats/summary.h"
#include "util/string_util.h"
#include "util/table.h"

namespace {

using namespace harvest;

struct RegimeResult {
  double bias = 0;
  double stddev = 0;
  double rmse = 0;
  double mc_noise = 0;  // Monte-Carlo stderr of the mean estimate
};

// Runs every estimator `reps` times on fresh `eval_n`-point exploration
// samples drawn under `logging`, printing one table row per estimator
// (labeled by the estimator's own name() — configuration constants live in
// the estimator, never in the label). Returns per-estimator summaries keyed
// by name.
std::map<std::string, RegimeResult> run_regime(
    const std::string& title, const core::FullFeedbackDataset& env,
    const core::Policy& logging, const core::Policy& policy, double truth,
    const std::vector<core::EstimatorPtr>& estimators, std::size_t eval_n,
    std::size_t reps, util::Rng& rng) {
  std::cout << title << "\n  true policy value "
            << util::format_double(truth, 4) << "; logging "
            << logging.name() << "; each estimator run " << reps
            << " times on fresh " << eval_n << "-point samples\n\n";
  util::Table table({"estimator", "mean estimate", "|bias|", "std dev",
                     "RMSE", "mean ESS", "max wt"});
  std::map<std::string, RegimeResult> out;
  for (const auto& estimator : estimators) {
    stats::Summary values;
    double ess_sum = 0, max_weight = 0;
    for (std::size_t r = 0; r < reps; ++r) {
      core::FullFeedbackDataset subset(env.num_actions(), env.reward_range());
      for (std::size_t i = 0; i < eval_n; ++i) {
        subset.add(env[rng.uniform_index(env.size())]);
      }
      const core::ExplorationDataset exp =
          subset.simulate_exploration(logging, rng);
      const core::Estimate est = estimator->evaluate(exp, policy);
      values.add(est.value);
      ess_sum += est.ess;
      max_weight = std::max(max_weight, est.max_weight);
    }
    const double bias = std::abs(values.mean() - truth);
    const double rmse = std::sqrt(bias * bias + values.variance());
    table.add_row({estimator->name(), util::format_double(values.mean(), 4),
                   util::format_double(bias, 4),
                   util::format_double(values.stddev(), 4),
                   util::format_double(rmse, 4),
                   util::format_double(ess_sum / static_cast<double>(reps), 1),
                   util::format_double(max_weight, 1)});
    out[estimator->name()] = {bias, values.stddev(), rmse,
                              values.stderr_mean()};
  }
  table.print(std::cout);
  std::cout << "\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const bench::CommonFlags common = bench::CommonFlags::parse(flags);

  bench::banner(
      "Ablation: off-policy estimators (machine health)",
      "IPS unbiased but high variance; DM low variance but biased; DR and "
      "SWITCH keep both small (the §5 roadmap)");

  const health::FleetConfig fleet_config;
  const health::Fleet fleet(fleet_config);
  const std::size_t num_actions = fleet_config.num_wait_actions;
  util::Rng rng(common.seed);
  const core::FullFeedbackDataset env =
      fleet.generate_dataset(common.fast ? 6000 : 20000, rng);
  const core::UniformRandomPolicy uniform(num_actions);

  // Candidate: a CB policy trained on independent data.
  const core::FullFeedbackDataset train = fleet.generate_dataset(6000, rng);
  const core::ExplorationDataset train_exp =
      train.simulate_exploration(uniform, rng);
  const core::PolicyPtr policy = core::train_cb_policy(train_exp, {});
  const double truth = env.true_value(*policy);

  // Reward model for DM/DR/SWITCH, fit on yet another independent sample.
  const core::ExplorationDataset model_exp =
      train.simulate_exploration(uniform, rng);
  auto model = std::make_shared<core::RidgeRewardModel>(
      core::fit_ridge(model_exp, 1.0, true));

  const std::size_t eval_n =
      static_cast<std::size_t>(flags.get_int("n", common.fast ? 500 : 2000));
  const std::size_t reps =
      static_cast<std::size_t>(flags.get_int("reps", common.fast ? 100 : 400));
  const double clip = flags.get_double("clip", 5.0);
  const double tau = flags.get_double("tau", 0.05);

  std::vector<core::EstimatorPtr> estimators;
  estimators.push_back(std::make_shared<core::IpsEstimator>());
  estimators.push_back(std::make_shared<core::ClippedIpsEstimator>(clip));
  estimators.push_back(std::make_shared<core::SnipsEstimator>());
  estimators.push_back(std::make_shared<core::DirectMethodEstimator>(model));
  estimators.push_back(std::make_shared<core::DoublyRobustEstimator>(model));
  estimators.push_back(std::make_shared<core::SwitchEstimator>(model, tau));
  const std::string ips = estimators[0]->name();
  const std::string clipped = estimators[1]->name();
  const std::string dm = estimators[3]->name();
  const std::string dr = estimators[4]->name();
  const std::string sw = estimators[5]->name();

  // Regime 1: uniform logging (the paper's setting — every weight = |A|).
  const auto uni = run_regime("Regime 1 — uniform logging", env, uniform,
                              *policy, truth, estimators, eval_n, reps, rng);

  // Regime 2: low overlap. The fleet mostly runs its wait-max default and
  // explores only with probability eps, so the actions our candidate policy
  // actually picks carry propensity eps/|A| and weights up to |A|/eps.
  const double low_eps = flags.get_double("low-eps", 0.1);
  const auto base = std::make_shared<core::ConstantPolicy>(num_actions,
                                                           num_actions - 1);
  const core::EpsilonGreedyPolicy low_overlap(base, low_eps);
  // The model for this regime is fit from the skewed log itself (importance
  // weighted), as it would be in production: no peeking at uniform data.
  const core::ExplorationDataset low_model_exp =
      train.simulate_exploration(low_overlap, rng);
  auto low_model = std::make_shared<core::RidgeRewardModel>(
      core::fit_ridge(low_model_exp, 1.0, true));
  std::vector<core::EstimatorPtr> low_estimators;
  low_estimators.push_back(std::make_shared<core::IpsEstimator>());
  low_estimators.push_back(std::make_shared<core::ClippedIpsEstimator>(clip));
  low_estimators.push_back(std::make_shared<core::SnipsEstimator>());
  low_estimators.push_back(
      std::make_shared<core::DirectMethodEstimator>(low_model));
  low_estimators.push_back(
      std::make_shared<core::DoublyRobustEstimator>(low_model));
  low_estimators.push_back(
      std::make_shared<core::SwitchEstimator>(low_model, tau));
  const auto low =
      run_regime("Regime 2 — low overlap (eps-greedy logging, eps=" +
                     util::format_double(low_eps, 2) + ")",
                 env, low_overlap, *policy, truth, low_estimators, eval_n,
                 reps, rng);

  // Each check prints [ok] or [FAIL]; any FAIL makes the exit status 1.
  bool all_ok = true;
  const auto mark = [&all_ok](bool ok) {
    all_ok = all_ok && ok;
    return ok ? "ok" : "FAIL";
  };
  std::cout << "Shape checks:\n"
            << "  [" << mark(uni.at(dr).stddev < uni.at(ips).stddev)
            << "] uniform: DR variance below IPS variance ("
            << util::format_double(uni.at(dr).stddev, 4) << " vs "
            << util::format_double(uni.at(ips).stddev, 4) << ")\n"
            << "  ["
            << mark(uni.at(dr).bias < uni.at(dm).bias + 0.005)
            << "] uniform: DR bias no worse than the direct method's\n"
            << "  ["
            << mark(uni.at(ips).bias < 3 * uni.at(ips).mc_noise + 0.003)
            << "] uniform: IPS is unbiased up to Monte-Carlo noise\n"
            << "  ["
            << mark(low.at(dr).rmse < low.at(clipped).rmse)
            << "] low overlap: DR beats clipped IPS on RMSE ("
            << util::format_double(low.at(dr).rmse, 4) << " vs "
            << util::format_double(low.at(clipped).rmse, 4) << ")\n"
            << "  ["
            << mark(low.at(sw).stddev < low.at(ips).stddev)
            << "] low overlap: SWITCH variance below plain IPS variance ("
            << util::format_double(low.at(sw).stddev, 4) << " vs "
            << util::format_double(low.at(ips).stddev, 4)
            << ") — the propensity threshold trades the 1/p weight "
               "variance for model bias on the switched records\n"
            << "\nNote: with uniform-over-" << num_actions
            << " logging every matched weight is exactly " << num_actions
            << ", so clipping at " << util::format_double(clip, 0)
            << " shrinks variance but scales the estimate by "
            << util::format_double(clip / static_cast<double>(num_actions), 2)
            << "; under low overlap the same clip throws away the rare "
               "high-weight matches that carry nearly all of the signal.\n";
  return all_ok ? 0 : 1;
}
