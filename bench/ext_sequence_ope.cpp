// Extension — §5's proposed fix, built and measured: sequence-aware
// off-policy evaluation of the "send to 1" policy that Table 2's
// single-step IPS gets catastrophically wrong.
//
// Two ingredients, both from §5:
//  (1) richer exploration: the logging router randomizes *traffic shares*
//      per epoch (EpochWeightedRandomRouter), so the log contains sustained
//      skewed-load episodes — including long same-server runs;
//  (2) sequence estimators: trajectory-level and per-decision importance
//      sampling reweigh whole action sequences, so the contexts (loads)
//      inside a matched sequence are the ones the candidate policy would
//      itself induce.
//
// Expected shape: stepwise IPS keeps claiming ~0.3s for send-to-1; the
// sequence estimators move decisively toward the deployed ~0.7s, with the
// predicted variance cost.
#include <iostream>
#include <memory>

#include "bench/bench_util.h"
#include "harvest/harvest.h"

int main(int argc, char** argv) {
  using namespace harvest;
  const util::Flags flags(argc, argv);
  const bench::CommonFlags common = bench::CommonFlags::parse(flags);

  bench::banner(
      "Extension: sequence-aware OPE fixes the send-to-1 estimate",
      "reweighing sequences of actions (not single actions) accounts for a "
      "policy's long-term impact on contexts — at a variance price");

  lb::LbConfig config = lb::fig5_config();
  config.num_requests = common.fast ? 40000 : 120000;
  config.warmup_requests = config.num_requests / 20;
  const std::size_t horizon =
      static_cast<std::size_t>(flags.get_int("horizon", 25));
  const std::size_t epoch =
      static_cast<std::size_t>(flags.get_int("epoch", 400));

  // Ground truth: deploy send-to-1.
  lb::SendToRouter send1_router(2, 0);
  util::Rng rng0(common.seed);
  const double online =
      lb::run_lb(config, send1_router, rng0).mean_latency;

  // Log under epoch-weighted randomization (richer exploration).
  lb::EpochWeightedRandomRouter logging(2, epoch, 0.35);
  util::Rng rng1(common.seed + 1);
  const lb::LbResult logged = lb::run_lb(config, logging, rng1);

  const core::TrajectoryDataset trajectories =
      core::chop_into_trajectories(logged.exploration, horizon);
  std::cout << "logged " << logged.exploration.size()
            << " decisions under epoch-weighted randomization (epoch "
            << epoch << ", mean latency "
            << util::format_double(logged.mean_latency, 3) << "s); chopped "
            << "into " << trajectories.size() << " trajectories of horizon "
            << horizon << "\n\n";

  const core::ConstantPolicy send1(2, 0);
  const double cap = config.latency_cap;

  const core::StepwiseIpsAdapter stepwise;
  const core::TrajectoryIpsEstimator traj(false);
  const core::TrajectoryIpsEstimator traj_w(true);
  const core::PerDecisionIpsEstimator pdis(false);
  const core::PerDecisionIpsEstimator pdis_w(true);
  // Doubly-robust variant (§5's "leveraging doubly robust techniques"):
  // reward model fit on the same harvested data, importance-weighted.
  auto model = std::make_shared<core::RidgeRewardModel>(
      core::fit_ridge(logged.exploration, 1.0, true));
  const core::SequenceDoublyRobustEstimator seq_dr(model, true);

  util::Table table({"estimator", "estimated latency (s)", "matched",
                     "stderr (reward units)"});
  auto report = [&](const core::SequenceEstimator& est) {
    const core::Estimate e = est.evaluate(trajectories, send1);
    table.add_row({est.name(),
                   util::format_double(lb::reward_to_latency(e.value, cap), 2),
                   std::to_string(e.matched) + "/" + std::to_string(e.n),
                   util::format_double(e.stderr_value, 4)});
    return lb::reward_to_latency(e.value, cap);
  };
  const double est_stepwise = report(stepwise);
  report(traj);
  const double est_traj_w = report(traj_w);
  report(pdis);
  const double est_pdis_w = report(pdis_w);
  const double est_dr = report(seq_dr);
  table.print(std::cout);

  std::cout << "\ndeployed (online) send-to-1 latency: "
            << util::format_double(online, 2) << "s\n";

  const double err_stepwise = std::abs(est_stepwise - online);
  const double err_traj = std::abs(est_traj_w - online);
  const double err_pdis = std::abs(est_pdis_w - online);
  // Each check prints [ok] or [FAIL]; any FAIL makes the exit status 1.
  bool all_ok = true;
  const auto mark = [&all_ok](bool ok) {
    all_ok = all_ok && ok;
    return ok ? "ok" : "FAIL";
  };
  std::cout << "\nShape checks:\n"
            << "  [" << mark(err_stepwise > 2 * err_traj)
            << "] weighted trajectory IS at least halves the stepwise error ("
            << util::format_double(err_traj, 2) << "s vs "
            << util::format_double(err_stepwise, 2) << "s off)\n"
            << "  [" << mark(err_pdis < err_stepwise)
            << "] weighted per-decision IS beats stepwise IPS too\n"
            << "  ["
            << mark(est_traj_w > est_stepwise + 0.05)
            << "] sequence weighting moves the estimate toward the "
               "overloaded truth\n"
            << "  ["
            << mark(std::abs(est_dr - online) < err_stepwise)
            << "] weighted sequence-DR beats stepwise too ("
            << util::format_double(est_dr, 2) << "s vs online "
            << util::format_double(online, 2) << "s)\n";
  return all_ok ? 0 : 1;
}
