#include "harvest/loop.h"

#include <memory>
#include <stdexcept>
#include <string>

#include "core/policies/basic.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "par/parallel.h"

namespace harvest::pipeline {

LoopResult run_continuous_loop(const LoopConfig& config,
                               core::PolicyPtr initial, DeployFn deploy,
                               util::Rng& rng) {
  if (!initial) {
    throw std::invalid_argument("run_continuous_loop: null initial policy");
  }
  if (!deploy) {
    throw std::invalid_argument("run_continuous_loop: null deploy function");
  }
  if (config.iterations == 0) {
    throw std::invalid_argument("run_continuous_loop: zero iterations");
  }
  if (config.exploration_epsilon <= 0 || config.exploration_epsilon > 1) {
    throw std::invalid_argument(
        "run_continuous_loop: exploration_epsilon in (0, 1]");
  }

  LoopResult result;
  core::PolicyPtr current = std::move(initial);
  std::vector<core::ExplorationDataset> history;
  obs::Registry& registry = obs::Registry::global();
  const obs::Labels labels = {{"loop", "continuous"}};
  obs::ScopedSpan loop_span("loop.run_continuous_loop");

  for (std::size_t it = 0; it < config.iterations; ++it) {
    obs::ScopedSpan round_span("loop.round");
    // Deploy with an exploration floor (except when the current policy is
    // already fully randomized, wrapping is still harmless).
    core::PolicyPtr deployed = std::make_shared<core::EpsilonGreedyPolicy>(
        current, config.exploration_epsilon);
    core::ExplorationDataset harvested = [&] {
      obs::ScopedSpan span("loop.deploy");
      return deploy(deployed, it, rng);
    }();
    if (harvested.empty()) {
      throw std::runtime_error(
          "run_continuous_loop: deployment harvested no data");
    }

    LoopRound round;
    round.iteration = it;
    round.harvested = harvested.size();
    // Shard-order reduction: the round reward is fixed for any --threads
    // value (the shard plan depends only on the point count).
    const auto& pts = harvested.points();
    const double reward_sum = par::parallel_reduce(
        par::default_pool(), par::ShardPlan::fixed(pts.size()), 0.0,
        [&](std::size_t, std::size_t begin, std::size_t end) {
          double s = 0;
          for (std::size_t i = begin; i < end; ++i) s += pts[i].reward;
          return s;
        },
        [](double acc, double s) { return acc + s; });
    round.mean_reward = reward_sum / static_cast<double>(harvested.size());
    round.deployed = deployed;
    // Surviving-sample weight health: the retrain step consumes exactly this
    // data, so report its ESS/clipped-weight shape rather than assuming the
    // deployment harvested cleanly.
    round.diagnostics = obs::compute_logging_diagnostics(harvested);
    result.rounds.push_back(round);

    registry.counter("harvest_loop_rounds_total", labels).add(1);
    registry.counter("harvest_loop_points_total", labels)
        .add(static_cast<double>(round.harvested));
    registry.histogram("harvest_loop_round_reward", labels)
        .observe(round.mean_reward);
    registry.gauge("harvest_loop_mean_reward", labels)
        .set(round.mean_reward);
    registry.gauge("harvest_loop_min_propensity", labels)
        .set(harvested.min_propensity());
    registry.gauge("harvest_loop_round_ess", labels)
        .set(round.diagnostics.ess);
    registry.gauge("harvest_loop_round_clipped_fraction", labels)
        .set(round.diagnostics.clipped_fraction);

    history.push_back(std::move(harvested));
    if (config.window > 0 && history.size() > config.window) {
      history.erase(history.begin());
    }

    // Retrain on the (windowed) harvested history.
    obs::ScopedSpan retrain_span("loop.retrain");
    core::ExplorationDataset training(history.front().num_actions(),
                                      history.front().reward_range());
    std::size_t total = 0;
    for (const auto& h : history) total += h.size();
    training.reserve(total);
    for (const auto& h : history) {
      for (const auto& pt : h.points()) training.add(pt);
    }
    current = core::train_cb_policy(training, config.train);
  }
  result.final_policy = current;
  return result;
}

}  // namespace harvest::pipeline
