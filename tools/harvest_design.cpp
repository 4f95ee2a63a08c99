// harvest_design: close the design loop — harvest, plan, serve under the
// plan, re-harvest, and show the measured OPE variance shrink.
//
// The paper harvests whatever randomness production systems already emit;
// this tool runs the natural next step: *choose* the randomness. From a
// harvest it fits a reward model, asks the design:: planner for the
// per-stratum exploration distribution that minimizes the worst-case
// off-policy-evaluation variance across the candidate policies we care
// about (subject to a propensity floor and a regret budget), deploys that
// LoggingPlan as a planned PolicySnapshot on the decision service, and
// compares the OPE error bars measured on the plan's own logs against an
// eps-greedy control arm serving the identical context stream.
//
// Modes:
//   --harvest DIR [--out plan.json]
//       Offline: scavenge an existing HLOG dataset directory, plan, write
//       the versioned plan JSON, print the planner report.
//   --selfloop [--out plan.json] [--bench BENCH.json] [--check]
//       In-process closed loop: harvest (uniform logging) -> plan -> serve
//       the planned snapshot and the eps-greedy baseline on the same
//       contexts -> re-harvest both arms -> measure IPS/DR error bars per
//       candidate. --check exits 1 unless the planner beat its baseline
//       objective AND the measured worst-case IPS variance under the plan
//       is no worse than under eps-greedy.
//
// Flags (selfloop): --decisions N (per arm; default 20000), --threads N
// (default 2), --actions K (3), --dim D (4), --epsilon E (0.2), --floor F
// (0.03), --iterations I (64), --seed S (42), --workdir DIR (design_loop).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "closed_loop.h"
#include "core/estimators/direct.h"
#include "core/estimators/ips.h"
#include "core/policies/basic.h"
#include "core/policies/greedy.h"
#include "core/reward_model.h"
#include "design/plan.h"
#include "design/planner.h"
#include "logs/scavenger.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "store/dataset.h"
#include "util/flags.h"

namespace {

using namespace harvest;
using tools::Environment;

/// Importance-weighted ridge fit on a harvest — the sharded core::fit_ridge
/// that serve::SnapshotTrainer::train_on publishes, so the planner and the
/// candidate set are built from exactly what the serving layer would deploy.
std::shared_ptr<core::RidgeRewardModel> fit_model(
    const core::ExplorationDataset& data) {
  return std::make_shared<core::RidgeRewardModel>(
      core::fit_ridge(data, 1.0, /*importance_weighted=*/true));
}

/// The evaluation suite the plan must protect: the trained greedy policy
/// (what we would deploy next) plus every "always play a" probe (the
/// classic A/B questions). Constant policies are what stress a logging
/// plan — each needs propensity mass on its action in every stratum.
std::vector<core::PolicyPtr> make_candidates(
    const std::shared_ptr<core::RidgeRewardModel>& model) {
  std::vector<core::PolicyPtr> candidates;
  candidates.push_back(
      std::make_shared<core::GreedyPolicy>(model, "trained-greedy"));
  for (std::size_t a = 0; a < model->num_actions(); ++a) {
    candidates.push_back(std::make_shared<core::ConstantPolicy>(
        model->num_actions(), static_cast<core::ActionId>(a)));
  }
  return candidates;
}

/// Serves `decisions` paired decisions from `snapshot` and returns the
/// scavenged harvest. Context and environment-noise streams depend only on
/// (seed, thread), NOT on the snapshot — so the eps-greedy and planned arms
/// see the identical context sequence and differ only in how they
/// randomize (a paired comparison).
core::ExplorationDataset serve_arm(
    std::unique_ptr<const serve::PolicySnapshot> snapshot,
    const std::string& dir, std::size_t decisions, std::size_t threads,
    std::size_t num_actions, std::size_t dim, std::uint64_t seed,
    const Environment& env, const store::Schema& schema,
    const logs::ScavengeSpec& spec, double* mean_reward) {
  const std::size_t per_thread = (decisions + threads - 1) / threads;
  std::size_t ring = 2;
  while (ring < per_thread + 1) ring <<= 1;
  serve::DecisionService service(
      {.num_actions = num_actions, .dim = dim, .log_capacity = ring,
       .seed = seed},
      std::move(snapshot));
  std::vector<serve::Decider*> deciders;
  for (std::size_t t = 0; t < threads; ++t) {
    deciders.push_back(&service.add_decider());
  }
  const double mean =
      tools::serve_round(deciders, env, dim, per_thread, seed);
  tools::log_round(service, dir, schema);
  service.reclaim_all();
  if (mean_reward != nullptr) *mean_reward = mean;
  const store::Dataset dataset = store::Dataset::open(dir);
  return logs::scavenge(dataset, spec).data;
}

struct MeasuredArm {
  std::vector<double> ips_stderr;  // per candidate
  std::vector<double> dr_stderr;
  std::vector<double> ips_value;
  double worst_ips_var = 0;
  double mean_reward = 0;
};

MeasuredArm measure(const core::ExplorationDataset& data,
                    const std::vector<core::PolicyPtr>& candidates,
                    const core::RewardModelPtr& model) {
  const core::IpsEstimator ips;
  const core::DoublyRobustEstimator dr(model);
  MeasuredArm arm;
  for (const auto& cand : candidates) {
    const core::Estimate e_ips = ips.evaluate(data, *cand, 0.05);
    const core::Estimate e_dr = dr.evaluate(data, *cand, 0.05);
    arm.ips_stderr.push_back(e_ips.stderr_value);
    arm.dr_stderr.push_back(e_dr.stderr_value);
    arm.ips_value.push_back(e_ips.value);
    arm.worst_ips_var = std::max(arm.worst_ips_var,
                                 e_ips.stderr_value * e_ips.stderr_value);
  }
  return arm;
}

void print_report(const design::PlannerReport& report) {
  std::printf("planner: strata=%zu floor=%.4f budget=%.6f iterations=%zu%s\n",
              report.plan.num_strata(), report.plan.propensity_floor,
              report.regret_budget, report.iterations_run,
              report.fell_back_to_baseline ? " (fell back to eps-greedy)"
                                           : "");
  std::printf("objective (worst-case variance proxy): planned=%.6g "
              "baseline=%.6g (x%.3f)\n",
              report.planned_objective, report.baseline_objective,
              report.planned_objective > 0
                  ? report.baseline_objective / report.planned_objective
                  : 0.0);
  std::printf("model regret/decision: planned=%.6f baseline=%.6f "
              "(budget %.6f)\n",
              report.planned_regret, report.baseline_regret,
              report.regret_budget);
  for (const auto& c : report.candidates) {
    std::printf("  candidate %-16s var planned=%.6g baseline=%.6g\n",
                c.name.c_str(), c.planned, c.baseline);
  }
}

bool write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::trunc);
  out << body;
  out.flush();
  if (!out) {
    std::fprintf(stderr, "harvest_design: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const std::string harvest_dir = flags.get_string("harvest", "");
  const bool selfloop = flags.get_bool("selfloop", false);
  const std::string out_path = flags.get_string("out", "");
  const std::string bench_path = flags.get_string("bench", "");
  const bool check = flags.get_bool("check", false);
  const auto decisions =
      static_cast<std::size_t>(flags.get_int("decisions", 20000));
  const auto threads = static_cast<std::size_t>(flags.get_int("threads", 2));
  const auto num_actions =
      static_cast<std::size_t>(flags.get_int("actions", 3));
  const auto dim = static_cast<std::size_t>(flags.get_int("dim", 4));
  const double epsilon = flags.get_double("epsilon", 0.2);
  const double floor = flags.get_double("floor", 0.03);
  const auto iterations =
      static_cast<std::size_t>(flags.get_int("iterations", 64));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const std::string workdir = flags.get_string("workdir", "design_loop");

  if (harvest_dir.empty() == !selfloop) {
    std::fprintf(stderr,
                 "harvest_design: pass exactly one of --harvest DIR or "
                 "--selfloop\n");
    return 2;
  }
  if (threads == 0 || decisions == 0 || num_actions == 0 ||
      dim > serve::kMaxContextDim) {
    std::fprintf(stderr, "harvest_design: bad geometry\n");
    return 2;
  }

  design::PlannerConfig planner_config;
  planner_config.propensity_floor = floor;
  planner_config.baseline_epsilon = epsilon;
  planner_config.iterations = iterations;

  // ---- offline mode: plan from an existing HLOG harvest ------------------
  if (!harvest_dir.empty()) {
    const store::Schema schema = tools::make_schema(num_actions, dim);
    const logs::ScavengeSpec spec = logs::spec_from_schema(schema);
    const store::Dataset dataset = store::Dataset::open(harvest_dir);
    const core::ExplorationDataset data = logs::scavenge(dataset, spec).data;
    if (data.empty()) {
      std::fprintf(stderr, "harvest_design: scavenge found no tuples\n");
      return 1;
    }
    std::printf("harvested %zu tuples from %s\n", data.size(),
                harvest_dir.c_str());
    const auto model = fit_model(data);
    const std::span<const double> reference = model->coefficients();
    const design::PlannerReport report = design::plan_logging(
        data, make_candidates(model), *model,
        std::vector<double>(reference.begin(), reference.end()), dim,
        planner_config);
    print_report(report);
    if (!out_path.empty() && !write_file(out_path, report.plan.to_json())) {
      return 1;
    }
    if (!out_path.empty()) {
      std::printf("plan written to %s\n", out_path.c_str());
    }
    return 0;
  }

  // ---- selfloop: harvest -> plan -> serve both arms -> re-measure --------
  std::filesystem::create_directories(workdir);
  const store::Schema schema = tools::make_schema(num_actions, dim);
  const logs::ScavengeSpec spec = logs::spec_from_schema(schema);

  const Environment env = Environment::make(num_actions, dim, seed);

  // Phase 1: harvest under uniform logging (the pre-design logging policy).
  double uniform_mean = 0;
  const core::ExplorationDataset harvest0 = serve_arm(
      serve::PolicySnapshot::uniform(1, num_actions, dim),
      workdir + "/harvest0", decisions, threads, num_actions, dim,
      seed ^ 0x48415256u /* "HARV" */, env, schema, spec, &uniform_mean);
  if (harvest0.size() < 100) {
    std::fprintf(stderr, "harvest_design: harvest too small (%zu tuples)\n",
                 harvest0.size());
    return 1;
  }
  std::printf("phase 1: harvested %zu tuples (uniform logging, mean "
              "reward %.4f)\n",
              harvest0.size(), uniform_mean);

  // Phase 2: fit, choose candidates, plan.
  const auto model = fit_model(harvest0);
  const std::vector<core::PolicyPtr> candidates = make_candidates(model);
  const std::span<const double> reference = model->coefficients();
  const design::PlannerReport report = design::plan_logging(
      harvest0, candidates, *model,
      std::vector<double>(reference.begin(), reference.end()), dim,
      planner_config);
  print_report(report);
  const std::string plan_path =
      out_path.empty() ? workdir + "/plan.json" : out_path;
  if (!write_file(plan_path, report.plan.to_json())) return 1;
  std::printf("phase 2: plan written to %s\n", plan_path.c_str());

  // Phase 3: serve both arms on the identical context stream. Executing the
  // plan goes through the real deployment path: JSON -> LoggingPlan ->
  // planned PolicySnapshot on a DecisionService.
  const design::LoggingPlan loaded = design::LoggingPlan::parse_json(
      report.plan.to_json(), plan_path);
  const std::uint64_t arm_seed = seed ^ 0x504C414Eu;  // "PLAN"
  double base_mean = 0, plan_mean = 0;
  const core::ExplorationDataset harvest_base = serve_arm(
      serve::PolicySnapshot::from_model(2, *model, dim, epsilon),
      workdir + "/arm_epsgreedy", decisions, threads, num_actions, dim,
      arm_seed, env, schema, spec, &base_mean);
  const core::ExplorationDataset harvest_plan = serve_arm(
      serve::PolicySnapshot::planned(3, num_actions, dim, loaded.reference_weights,
                                     loaded.distributions),
      workdir + "/arm_planned", decisions, threads, num_actions, dim,
      arm_seed, env, schema, spec, &plan_mean);
  std::printf("phase 3: served %zu decisions per arm (mean reward: "
              "eps-greedy %.4f, planned %.4f)\n",
              decisions, base_mean, plan_mean);

  // Phase 4: measure the OPE error bars each arm's logs support.
  const core::RewardModelPtr model_ptr = model;
  const MeasuredArm base = measure(harvest_base, candidates, model_ptr);
  const MeasuredArm planned = measure(harvest_plan, candidates, model_ptr);
  std::printf("phase 4: measured OPE error bars (%zu candidates)\n",
              candidates.size());
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    std::printf("  %-16s ips stderr: eps-greedy %.5f planned %.5f | dr "
                "stderr: eps-greedy %.5f planned %.5f\n",
                candidates[c]->name().c_str(), base.ips_stderr[c],
                planned.ips_stderr[c], base.dr_stderr[c],
                planned.dr_stderr[c]);
  }
  const double shrink =
      planned.worst_ips_var > 0 ? base.worst_ips_var / planned.worst_ips_var
                                : 0.0;
  std::printf("worst-case measured IPS variance: eps-greedy %.6g planned "
              "%.6g (shrink x%.3f)\n",
              base.worst_ips_var, planned.worst_ips_var, shrink);

  if (!bench_path.empty()) {
    std::string body = "{\n";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"decisions_per_arm\": %zu,\n  \"threads\": %zu,\n"
                  "  \"actions\": %zu,\n  \"dim\": %zu,\n"
                  "  \"epsilon\": %g,\n  \"floor\": %g,\n  \"seed\": %llu,\n",
                  decisions, threads, num_actions, dim, epsilon, floor,
                  static_cast<unsigned long long>(seed));
    body += buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"planned_objective\": %.6g,\n"
                  "  \"baseline_objective\": %.6g,\n"
                  "  \"planned_regret\": %.6g,\n"
                  "  \"baseline_regret\": %.6g,\n"
                  "  \"fell_back_to_baseline\": %s,\n",
                  report.planned_objective, report.baseline_objective,
                  report.planned_regret, report.baseline_regret,
                  report.fell_back_to_baseline ? "true" : "false");
    body += buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"mean_reward_epsgreedy\": %.6f,\n"
                  "  \"mean_reward_planned\": %.6f,\n",
                  base_mean, plan_mean);
    body += buf;
    body += "  \"candidates\": [\n";
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      std::snprintf(buf, sizeof(buf),
                    "    {\"name\": \"%s\", \"ips_stderr_epsgreedy\": %.6g, "
                    "\"ips_stderr_planned\": %.6g, \"dr_stderr_epsgreedy\": "
                    "%.6g, \"dr_stderr_planned\": %.6g}%s\n",
                    candidates[c]->name().c_str(), base.ips_stderr[c],
                    planned.ips_stderr[c], base.dr_stderr[c],
                    planned.dr_stderr[c],
                    c + 1 < candidates.size() ? "," : "");
      body += buf;
    }
    body += "  ],\n";
    std::snprintf(buf, sizeof(buf),
                  "  \"worst_ips_var_epsgreedy\": %.6g,\n"
                  "  \"worst_ips_var_planned\": %.6g,\n"
                  "  \"variance_shrink\": %.4f\n}\n",
                  base.worst_ips_var, planned.worst_ips_var, shrink);
    body += buf;
    if (!write_file(bench_path, body)) return 1;
    std::printf("bench written to %s\n", bench_path.c_str());
  }

  if (check) {
    if (report.planned_objective > report.baseline_objective) {
      std::fprintf(stderr,
                   "harvest_design: planner objective worse than baseline\n");
      return 1;
    }
    if (planned.worst_ips_var > base.worst_ips_var) {
      std::fprintf(stderr,
                   "harvest_design: measured planned variance (%.6g) worse "
                   "than eps-greedy (%.6g)\n",
                   planned.worst_ips_var, base.worst_ips_var);
      return 1;
    }
    std::printf("check ok: planned logging never worse, measured shrink "
                "x%.3f\n", shrink);
  }
  return 0;
}
