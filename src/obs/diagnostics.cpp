#include "obs/diagnostics.h"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "stats/summary.h"
#include "util/string_util.h"

namespace harvest::obs {

namespace {

/// z to report when a zero-variance feature changes its mean: effectively
/// "infinite" drift without propagating inf through exporters.
constexpr double kDegenerateDriftZ = 1e9;

OpeDiagnostics finish_weights(const std::vector<double>& weights,
                              double min_propensity, double clip_weight) {
  OpeDiagnostics diag;
  diag.n = weights.size();
  diag.min_propensity = min_propensity;
  diag.clip_weight = clip_weight;
  if (weights.empty()) return diag;

  const stats::WeightSummary summary = stats::summarize_weights(weights);
  const auto n = static_cast<double>(weights.size());
  diag.max_weight = summary.max;
  diag.mean_weight = summary.sum / n;
  diag.ess = summary.ess();
  diag.ess_fraction = diag.ess / n;
  const auto clipped =
      std::count_if(weights.begin(), weights.end(),
                    [&](double w) { return w > clip_weight; });
  diag.clipped_fraction = static_cast<double>(clipped) / n;
  return diag;
}

}  // namespace

OpeDiagnostics compute_ope_diagnostics(const core::ExplorationDataset& data,
                                       const core::Policy& policy,
                                       double clip_weight) {
  std::vector<double> weights;
  weights.reserve(data.size());
  for (const auto& pt : data.points()) {
    const double p = std::max(pt.propensity, 1e-12);
    weights.push_back(policy.probability(pt.context, pt.action) / p);
  }
  return finish_weights(weights, data.min_propensity(), clip_weight);
}

OpeDiagnostics compute_logging_diagnostics(
    const core::ExplorationDataset& data, double clip_weight) {
  std::vector<double> weights;
  weights.reserve(data.size());
  for (const auto& pt : data.points()) {
    weights.push_back(1.0 / std::max(pt.propensity, 1e-12));
  }
  return finish_weights(weights, data.min_propensity(), clip_weight);
}

DriftReport compute_context_drift(const core::ExplorationDataset& logged,
                                  const core::ExplorationDataset& eval) {
  DriftReport report;
  if (logged.empty() || eval.empty()) return report;
  const std::size_t dims =
      std::min(logged[0].context.size(), eval[0].context.size());

  for (std::size_t f = 0; f < dims; ++f) {
    stats::Summary a, b;
    for (const auto& pt : logged.points()) a.add(pt.context[f]);
    for (const auto& pt : eval.points()) b.add(pt.context[f]);

    FeatureDrift drift;
    drift.feature = f;
    drift.mean_logged = a.mean();
    drift.mean_eval = b.mean();
    const double se = std::sqrt(
        a.variance() / static_cast<double>(a.count()) +
        b.variance() / static_cast<double>(b.count()));
    const double diff = std::abs(a.mean() - b.mean());
    if (se > 0) {
      drift.z = diff / se;
    } else {
      drift.z = diff > 1e-12 ? kDegenerateDriftZ : 0.0;
    }
    if (drift.z > report.max_z) {
      report.max_z = drift.z;
      report.max_feature = f;
    }
    report.features.push_back(drift);
  }
  return report;
}

DriftReport compute_context_drift_split(const core::ExplorationDataset& data,
                                        double fraction) {
  const auto [logged, eval] = data.split(fraction);
  return compute_context_drift(logged, eval);
}

std::vector<Diagnostic> check_ope_health(
    const OpeDiagnostics& ope, const DriftReport* drift,
    const DiagnosticThresholds& thresholds) {
  std::vector<Diagnostic> warnings;
  if (ope.n > 0 && ope.ess_fraction < thresholds.ess_fraction_min) {
    warnings.push_back(
        {"low-ess",
         "effective sample size " + util::format_double(ope.ess, 1) + " is " +
             util::format_double(100 * ope.ess_fraction, 1) + "% of n=" +
             std::to_string(ope.n) + " (floor " +
             util::format_double(100 * thresholds.ess_fraction_min, 0) +
             "%) — estimates dominated by a few high-weight points"});
  }
  if (ope.n > 0 && ope.min_propensity < thresholds.min_propensity_floor) {
    warnings.push_back(
        {"low-propensity",
         "min propensity " + util::format_double(ope.min_propensity, 5) +
             " below floor " +
             util::format_double(thresholds.min_propensity_floor, 5) +
             " — Eq. 1 width blows up; consider clipping or a higher "
             "exploration floor"});
  }
  if (ope.max_weight > thresholds.max_weight_ceiling) {
    warnings.push_back(
        {"weight-blowup",
         "max importance weight " + util::format_double(ope.max_weight, 1) +
             " exceeds " +
             util::format_double(thresholds.max_weight_ceiling, 0) +
             " (clipped fraction " +
             util::format_double(100 * ope.clipped_fraction, 2) +
             "%) — variance no longer trustworthy"});
  }
  if (drift != nullptr && drift->drifted(thresholds.drift_z_max)) {
    warnings.push_back(
        {"context-drift",
         "feature " + std::to_string(drift->max_feature) +
             " drifted between logging and evaluation windows (z=" +
             util::format_double(drift->max_z, 1) + ", threshold " +
             util::format_double(thresholds.drift_z_max, 1) +
             ") — A1 stationarity violated, off-policy estimates unreliable"});
  }
  return warnings;
}

void print_warnings(std::ostream& out, const std::string& label,
                    const std::vector<Diagnostic>& warnings) {
  for (const Diagnostic& w : warnings) {
    out << "WARN obs[" << label << "]: " << w.code << " — " << w.message
        << "\n";
  }
}

void register_diagnostics(Registry& registry, const OpeDiagnostics& ope,
                          const DriftReport* drift, const Labels& labels) {
  registry.gauge("ope_ess", labels).set(ope.ess);
  registry.gauge("ope_ess_fraction", labels).set(ope.ess_fraction);
  registry.gauge("ope_min_propensity", labels).set(ope.min_propensity);
  registry.gauge("ope_max_weight", labels).set(ope.max_weight);
  registry.gauge("ope_clipped_fraction", labels).set(ope.clipped_fraction);
  if (drift != nullptr) {
    registry.gauge("ope_drift_max_z", labels).set(drift->max_z);
  }
}

}  // namespace harvest::obs
