// obs_overhead — the flight recorder's admission gate.
//
// The recorder is only allowed on the harvest hot paths if it is close to
// free. This bench runs the fully instrumented scavenge→estimate loop (the
// same pipeline::evaluate_candidates path harvest_inspect and the table
// benches use — scope spans per stage, quarantine instants per dropped
// record) with the process recorder enabled and disabled, and reports the
// relative overhead as the median over reps of each rep's on/off wall-time
// ratio. A rep times one block in each mode back to back, and the mode that
// goes first swaps from rep to rep, so a host slowdown lands on both halves
// of a ratio instead of reading as recorder overhead, and the median keeps
// the few reps a slowdown did split from deciding the gate, as they could
// when the gate compared the two modes' minimum times.
//
//   obs_overhead [--fast] [--reps N] [--records N] [--iters N]
//                [--max-overhead FRAC] [--json-out BENCH_obs.json]
//
// --max-overhead 0.05 turns the report into a gate: exit nonzero when the
// instrumented loop is more than 5% slower than the baseline (this is how
// tools/ci.sh runs it). The gate also fails if any producer ring dropped an
// event — default configurations must record loss-free.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "bench/bench_util.h"
#include "harvest/harvest.h"

namespace {

using namespace harvest;

/// A demo log shaped like the harvest_inspect selftest corpus, with ~10% of
/// decisions carrying a missing context field so the quarantine instant
/// path (one recorder event per dropped record) stays hot.
logs::LogStore make_log(std::size_t records, std::uint64_t seed) {
  util::Rng rng(seed);
  logs::LogStore log;
  for (std::size_t i = 0; i < records; ++i) {
    const double load = rng.uniform(0.0, 10.0);
    const auto action = static_cast<core::ActionId>(rng.uniform_index(3));
    const double reward =
        0.5 + 0.04 * static_cast<double>(action) * (load - 5.0) +
        rng.normal(0.0, 0.05);
    logs::Record rec;
    rec.time = static_cast<double>(i) * 0.5;
    rec.event = "decide";
    if (rng.uniform(0.0, 1.0) >= 0.1) rec.set("load", load);
    rec.set("choice", static_cast<std::int64_t>(action));
    rec.set("reward", reward);
    log.append(std::move(rec));
  }
  return log;
}

/// One timed pass: scavenge the log, infer propensities, and IPS-evaluate
/// every constant policy — the instrumented hot loop under test.
void run_pipeline(const logs::LogStore& log,
                  const pipeline::PipelineConfig& config,
                  const std::vector<core::PolicyPtr>& candidates) {
  pipeline::evaluate_candidates(log, config, candidates, nullptr);
}

/// Each mode's minimum wall time of `iters` passes over the reps, and the
/// median over reps of the rep's on/off ratio.
struct Timings {
  double off_ms = 0;
  double on_ms = 0;
  double median_ratio = 1;
};

/// Every rep times one pass block in each mode, and the mode that goes first
/// swaps from rep to rep. Leaves the recorder enabled.
Timings alternating_reps(std::size_t reps, std::size_t iters,
                         const logs::LogStore& log,
                         const pipeline::PipelineConfig& config,
                         const std::vector<core::PolicyPtr>& candidates,
                         obs::Recorder& recorder) {
  Timings t;
  std::vector<double> ratios;
  for (std::size_t r = 0; r < reps; ++r) {
    double ms[2] = {0, 0};  // [off, on]
    for (std::size_t k = 0; k < 2; ++k) {
      const bool on = (r + k) % 2 == 1;
      recorder.set_enabled(on);
      bench::WallTimer timer;
      for (std::size_t i = 0; i < iters; ++i) {
        run_pipeline(log, config, candidates);
      }
      ms[on ? 1 : 0] = timer.elapsed_ms();
    }
    if (r == 0 || ms[0] < t.off_ms) t.off_ms = ms[0];
    if (r == 0 || ms[1] < t.on_ms) t.on_ms = ms[1];
    ratios.push_back(ms[0] > 0 ? ms[1] / ms[0] : 1.0);
  }
  recorder.set_enabled(true);
  std::sort(ratios.begin(), ratios.end());
  const std::size_t mid = ratios.size() / 2;
  t.median_ratio = ratios.size() % 2 == 1
                       ? ratios[mid]
                       : 0.5 * (ratios[mid - 1] + ratios[mid]);
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const auto common = bench::CommonFlags::parse(flags);
  const auto reps = static_cast<std::size_t>(
      flags.get_int("reps", common.fast ? 3 : 5));
  const auto records = static_cast<std::size_t>(
      flags.get_int("records", common.fast ? 2000 : 8000));
  const auto iters =
      static_cast<std::size_t>(flags.get_int("iters", common.fast ? 2 : 4));
  const double max_overhead = flags.get_double("max-overhead", -1.0);
  const std::string json_out = flags.get_string("json-out", "");

  bench::banner("obs_overhead — flight recorder overhead gate",
                "telemetry must be ~free on the harvest hot path "
                "(instrumented scavenge->estimate within a few % of "
                "uninstrumented)");

  const logs::LogStore log = make_log(records, common.seed);

  pipeline::PipelineConfig config;
  config.spec.decision_event = "decide";
  config.spec.context_fields = {"load"};
  config.spec.action_field = "choice";
  config.spec.reward_field = "reward";
  config.spec.num_actions = 3;
  config.spec.reward_range = {-0.5, 1.5};
  config.spec.reward_transform = [](double r) { return r; };
  config.inference = std::make_shared<core::EmpiricalPropensityModel>(
      config.spec.num_actions, std::vector<std::size_t>{});
  config.estimator = std::make_shared<core::IpsEstimator>();
  config.obs_label = "obs_overhead";
  config.diagnostics_warnings = false;

  std::vector<core::PolicyPtr> candidates;
  for (std::size_t a = 0; a < config.spec.num_actions; ++a) {
    candidates.push_back(std::make_shared<core::ConstantPolicy>(
        config.spec.num_actions, static_cast<core::ActionId>(a)));
  }

  obs::Recorder& recorder = obs::Recorder::global();

  // Warm both paths (allocations, name interning, registry series) so the
  // timed reps measure steady state.
  run_pipeline(log, config, candidates);
  recorder.drain();
  recorder.reset();

  const Timings timings =
      alternating_reps(reps, iters, log, config, candidates, recorder);
  const double baseline_ms = timings.off_ms;
  const double instrumented_ms = timings.on_ms;
  const obs::DrainStats drained = recorder.drain();
  const std::uint64_t dropped = recorder.ring_dropped_total();

  const double overhead = timings.median_ratio - 1.0;

  util::Table table({"mode", "min wall ms", "overhead (median on/off - 1)"});
  table.add_row({"recorder off", util::format_double(baseline_ms, 3), "-"});
  table.add_row({"recorder on", util::format_double(instrumented_ms, 3),
                 util::format_double(100.0 * overhead, 2) + "%"});
  table.print(std::cout);
  std::cout << "events recorded: " << recorder.trace_size() << " retained ("
            << drained.collected << " drained last pass), dropped "
            << dropped << ", trace evictions "
            << recorder.trace_evicted_total() << "\n";

  if (!json_out.empty()) {
    std::ofstream json(json_out);
    if (!json) {
      std::cerr << "cannot write " << json_out << "\n";
      return 1;
    }
    json << "{\"bench\":\"obs_overhead\",\"records\":" << records
         << ",\"iters\":" << iters << ",\"reps\":" << reps
         << ",\"baseline_ms\":" << util::format_double(baseline_ms, 3)
         << ",\"instrumented_ms\":" << util::format_double(instrumented_ms, 3)
         << ",\"overhead_frac\":" << util::format_double(overhead, 4)
         << ",\"events_retained\":" << recorder.trace_size()
         << ",\"ring_dropped\":" << dropped << "}\n";
    std::cout << "json: written to " << json_out << "\n";
  }

  bench::export_metrics(common);
  bench::export_trace(common);

  if (dropped != 0) {
    std::cerr << "FAIL: recorder dropped " << dropped
              << " events in a default configuration\n";
    return 1;
  }
  if (max_overhead >= 0 && overhead > max_overhead) {
    std::cerr << "FAIL: recorder overhead "
              << util::format_double(100.0 * overhead, 2) << "% exceeds gate "
              << util::format_double(100.0 * max_overhead, 2) << "%\n";
    return 1;
  }
  return 0;
}
