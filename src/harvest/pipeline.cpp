#include "harvest/pipeline.h"

#include <iostream>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/recorder.h"
#include "par/parallel.h"

namespace harvest::pipeline {

namespace {

obs::Labels pipeline_labels(const PipelineConfig& config) {
  return {{"pipeline", config.obs_label}};
}

/// Step-1 source abstraction: the pipeline is identical for text logs and
/// HLOG corpora except for how the ScavengeResult is produced.
using ScavengeFn = std::function<logs::ScavengeResult()>;

core::ExplorationDataset scavenge_and_infer(const ScavengeFn& scavenge_fn,
                                            const PipelineConfig& config,
                                            HarvestReport& report) {
  obs::Registry& registry = obs::Registry::global();
  const obs::Labels labels = pipeline_labels(config);

  // Step 1: scavenge.
  logs::ScavengeResult scavenged = [&] {
    obs::ScopedSpan span("pipeline.scavenge");
    return scavenge_fn();
  }();
  report.records_seen = scavenged.records_seen;
  report.decisions_seen = scavenged.decisions_seen;
  report.decisions_harvested = scavenged.data.size();
  report.decisions_dropped = scavenged.total_dropped();
  report.dropped_missing_fields = scavenged.dropped_missing_fields;
  report.dropped_bad_action = scavenged.dropped_bad_action;
  report.dropped_bad_propensity = scavenged.dropped_bad_propensity;
  report.dropped_stale_timestamp = scavenged.dropped_stale_timestamp;
  report.dropped_corrupt_block = scavenged.dropped_corrupt_block;
  report.quarantine_rate =
      scavenged.decisions_seen == 0
          ? 0.0
          : static_cast<double>(report.decisions_dropped) /
                static_cast<double>(scavenged.decisions_seen);
  registry.counter("harvest_records_seen_total", labels)
      .add(static_cast<double>(report.records_seen));
  registry.counter("harvest_decisions_harvested_total", labels)
      .add(static_cast<double>(report.decisions_harvested));
  registry.counter("harvest_decisions_dropped_total", labels)
      .add(static_cast<double>(report.decisions_dropped));
  const auto quarantined = [&](std::string_view cls, std::size_t count) {
    if (count == 0) return;
    obs::Labels cls_labels = labels;
    cls_labels.emplace_back("class", std::string(cls));
    registry.counter("harvest_quarantined_total", cls_labels)
        .add(static_cast<double>(count));
  };
  using logs::QuarantineClass;
  quarantined(logs::to_string(QuarantineClass::kMissingField),
              scavenged.dropped_missing_fields);
  quarantined(logs::to_string(QuarantineClass::kBadAction),
              scavenged.dropped_bad_action);
  quarantined(logs::to_string(QuarantineClass::kBadPropensity),
              scavenged.dropped_bad_propensity);
  quarantined(logs::to_string(QuarantineClass::kStaleTimestamp),
              scavenged.dropped_stale_timestamp);
  quarantined(logs::to_string(QuarantineClass::kCorruptBlock),
              scavenged.dropped_corrupt_block);
  registry.gauge("harvest_quarantine_rate", labels)
      .set(report.quarantine_rate);

  // Step 2: infer propensities if the log did not carry them.
  core::ExplorationDataset data = std::move(scavenged.data);
  if (config.inference) {
    obs::ScopedSpan span("pipeline.infer_propensities");
    config.inference->fit(data);
    data = core::annotate_propensities(data, *config.inference);
  }
  report.min_propensity = data.min_propensity();
  registry.gauge("harvest_min_propensity", labels)
      .set(report.min_propensity);
  return data;
}

/// Shared post-harvest health check: policy-free weight diagnostics plus
/// the first-half/second-half context-drift test, exported as gauges and
/// surfaced as WARN lines when thresholds trip.
void run_diagnostics(const core::ExplorationDataset& data,
                     const PipelineConfig& config, HarvestReport& report) {
  obs::ScopedSpan span("pipeline.diagnostics");
  report.logging_diagnostics = obs::compute_logging_diagnostics(data);
  report.drift = obs::compute_context_drift_split(data, 0.5);
  report.warnings = obs::check_ope_health(report.logging_diagnostics,
                                          &report.drift, config.thresholds);
  // Graceful degradation, not silent shrinkage: when ingestion quarantined a
  // large share of the log, every downstream number describes a different
  // (surviving) sample — say so alongside the OPE-health warnings.
  if (report.quarantine_rate > config.max_quarantine_rate) {
    report.warnings.push_back(obs::Diagnostic{
        "high-quarantine",
        "ingestion quarantined " +
            std::to_string(report.decisions_dropped) + " of " +
            std::to_string(report.decisions_seen) +
            " decisions; estimates describe the surviving sample only"});
  }
  obs::register_diagnostics(obs::Registry::global(),
                            report.logging_diagnostics, &report.drift,
                            pipeline_labels(config));
  if (config.diagnostics_warnings) {
    obs::print_warnings(std::cerr, config.obs_label, report.warnings);
  }
}

HarvestReport evaluate_candidates_impl(
    const ScavengeFn& scavenge_fn, const PipelineConfig& config,
    const std::vector<core::PolicyPtr>& candidates,
    core::ExplorationDataset* harvested_out) {
  if (!config.estimator) {
    throw std::invalid_argument("evaluate_candidates: estimator required");
  }
  obs::ScopedSpan root("pipeline.evaluate_candidates");
  HarvestReport report;
  core::ExplorationDataset data =
      scavenge_and_infer(scavenge_fn, config, report);
  if (data.empty()) {
    throw std::runtime_error(
        "evaluate_candidates: no exploration data harvested");
  }
  run_diagnostics(data, config, report);

  // Step 3: evaluate all candidates offline. Candidates are independent, so
  // each one fills its own report slot in parallel; when evaluation runs on
  // a worker thread the estimator's inner parallel loops execute inline,
  // which keeps per-candidate results identical to a sequential run.
  {
    obs::ScopedSpan span("pipeline.estimate");
    for (const auto& policy : candidates) {
      if (!policy) throw std::invalid_argument("null candidate policy");
    }
    report.candidates.resize(candidates.size());
    par::parallel_for(
        par::default_pool(), par::ShardPlan::per_item(candidates.size()),
        [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            const core::Policy& policy = *candidates[i];
            CandidateReport& candidate = report.candidates[i];
            candidate.policy_name = policy.name();
            candidate.estimate =
                config.estimator->evaluate(data, policy, config.delta);
            candidate.diagnostics = obs::compute_ope_diagnostics(data, policy);
          }
        });
  }
  obs::Registry::global()
      .counter("harvest_candidates_evaluated_total", pipeline_labels(config))
      .add(static_cast<double>(candidates.size()));
  if (report.min_propensity > 0 && !candidates.empty()) {
    report.eq1_width = core::cb_ci_width(
        static_cast<double>(data.size()),
        static_cast<double>(candidates.size()), report.min_propensity,
        config.bound_params);
    report.max_class_size = core::max_policy_class_size(
        static_cast<double>(data.size()), report.min_propensity, 0.05,
        config.bound_params);
  }
  if (harvested_out != nullptr) *harvested_out = std::move(data);
  return report;
}

core::PolicyPtr optimize_policy_impl(const ScavengeFn& scavenge_fn,
                                     const PipelineConfig& config,
                                     core::TrainConfig train_config) {
  obs::ScopedSpan root("pipeline.optimize_policy");
  HarvestReport report;
  core::ExplorationDataset data =
      scavenge_and_infer(scavenge_fn, config, report);
  if (data.empty()) {
    throw std::runtime_error("optimize_policy: no exploration data harvested");
  }
  run_diagnostics(data, config, report);
  obs::ScopedSpan span("pipeline.train");
  return core::train_cb_policy(data, train_config);
}

}  // namespace

HarvestReport evaluate_candidates(
    const logs::LogStore& log, const PipelineConfig& config,
    const std::vector<core::PolicyPtr>& candidates,
    core::ExplorationDataset* harvested_out) {
  return evaluate_candidates_impl(
      [&] { return logs::scavenge(log, config.spec); }, config, candidates,
      harvested_out);
}

HarvestReport evaluate_candidates(
    const store::Reader& reader, const PipelineConfig& config,
    const std::vector<core::PolicyPtr>& candidates,
    core::ExplorationDataset* harvested_out) {
  return evaluate_candidates_impl(
      [&] {
        return logs::scavenge(reader, config.spec, config.scan_predicate);
      },
      config, candidates, harvested_out);
}

HarvestReport evaluate_candidates(
    const store::Dataset& dataset, const PipelineConfig& config,
    const std::vector<core::PolicyPtr>& candidates,
    core::ExplorationDataset* harvested_out) {
  return evaluate_candidates_impl(
      [&] {
        return logs::scavenge(dataset, config.spec, config.scan_predicate);
      },
      config, candidates, harvested_out);
}

core::PolicyPtr optimize_policy(const logs::LogStore& log,
                                const PipelineConfig& config,
                                core::TrainConfig train_config) {
  return optimize_policy_impl([&] { return logs::scavenge(log, config.spec); },
                              config, train_config);
}

core::PolicyPtr optimize_policy(const store::Reader& reader,
                                const PipelineConfig& config,
                                core::TrainConfig train_config) {
  return optimize_policy_impl(
      [&] {
        return logs::scavenge(reader, config.spec, config.scan_predicate);
      },
      config, train_config);
}

core::PolicyPtr optimize_policy(const store::Dataset& dataset,
                                const PipelineConfig& config,
                                core::TrainConfig train_config) {
  return optimize_policy_impl(
      [&] {
        return logs::scavenge(dataset, config.spec, config.scan_predicate);
      },
      config, train_config);
}

}  // namespace harvest::pipeline
