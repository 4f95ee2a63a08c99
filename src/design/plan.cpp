#include "design/plan.h"

#include <cmath>
#include <cstdio>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/linalg.h"
#include "util/json.h"

namespace harvest::design {

namespace {

[[noreturn]] void fail(const std::string& origin, const std::string& what) {
  throw std::invalid_argument("logging plan " + origin + ": " + what);
}

// %.17g round-trips every finite double exactly, so to_json/parse_json is a
// bit-identity and the determinism suite can diff serialized plans.
std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void append_array(std::ostringstream& out, const std::vector<double>& values) {
  out << '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out << ',';
    out << format_double(values[i]);
  }
  out << ']';
}

double require_number(const util::json::Value& obj, const std::string& key,
                      const std::string& origin) {
  const util::json::Value* v = obj.find(key);
  const std::optional<double> d = v ? v->as_double() : std::nullopt;
  if (!d) fail(origin, "missing numeric field \"" + key + "\"");
  return *d;
}

std::vector<double> require_number_array(const util::json::Value& obj,
                                         const std::string& key,
                                         const std::string& origin) {
  const util::json::Value* v = obj.find(key);
  if (!v || !v->as_array()) {
    fail(origin, "missing array field \"" + key + "\"");
  }
  std::vector<double> out;
  out.reserve(v->as_array()->size());
  for (const util::json::Value& e : *v->as_array()) {
    const std::optional<double> d = e.as_double();
    if (!d) fail(origin, "non-numeric entry in \"" + key + "\"");
    out.push_back(*d);
  }
  return out;
}

std::size_t require_count(const util::json::Value& obj, const std::string& key,
                          const std::string& origin) {
  const double v = require_number(obj, key, origin);
  if (!(v >= 0) || v != std::floor(v) || v > 1e9) {
    fail(origin, "field \"" + key + "\" is not a small non-negative integer");
  }
  return static_cast<std::size_t>(v);
}

}  // namespace

std::span<const double> LoggingPlan::stratum_distribution(
    std::size_t s) const {
  return std::span<const double>(distributions.data() + s * num_actions,
                                 num_actions);
}

std::size_t LoggingPlan::stratum_of(std::span<const double> context) const {
  return core::LinearScorer(reference_weights, num_actions).argmax(context);
}

void LoggingPlan::validate() const {
  auto bad = [](const std::string& what) {
    throw std::invalid_argument("LoggingPlan: " + what);
  };
  if (version != kPlanVersion) bad("unsupported version");
  if (num_actions == 0) bad("num_actions must be positive");
  if (reference_weights.size() != num_actions * (dim + 1)) {
    bad("reference_weights size mismatch");
  }
  if (distributions.size() != num_actions * num_actions) {
    bad("distributions size mismatch");
  }
  if (!(propensity_floor >= 0) ||
      propensity_floor * static_cast<double>(num_actions) > 1.0 + 1e-12) {
    bad("propensity floor infeasible");
  }
  if (!std::isfinite(regret_budget) || regret_budget < 0) {
    bad("regret budget must be finite and non-negative");
  }
  for (double w : reference_weights) {
    if (!std::isfinite(w)) bad("non-finite reference weight");
  }
  for (std::size_t s = 0; s < num_actions; ++s) {
    double sum = 0;
    for (std::size_t a = 0; a < num_actions; ++a) {
      const double q = distributions[s * num_actions + a];
      if (!std::isfinite(q) || q <= 0 || q > 1) {
        bad("probability outside (0, 1] in stratum " + std::to_string(s));
      }
      if (q + 1e-12 < propensity_floor) {
        bad("probability below the floor in stratum " + std::to_string(s));
      }
      sum += q;
    }
    if (std::abs(sum - 1.0) > 1e-9) {
      bad("stratum " + std::to_string(s) + " does not sum to 1");
    }
  }
  if (!stratum_weights.empty() && stratum_weights.size() != num_actions) {
    bad("stratum_weights size mismatch");
  }
  if (!candidate_names.empty() &&
      (!std::isfinite(planned_objective) ||
       !std::isfinite(baseline_objective))) {
    bad("non-finite objective");
  }
}

std::string LoggingPlan::to_json() const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"logging_plan\": " << version << ",\n";
  out << "  \"num_actions\": " << num_actions << ",\n";
  out << "  \"dim\": " << dim << ",\n";
  out << "  \"propensity_floor\": " << format_double(propensity_floor)
      << ",\n";
  out << "  \"regret_budget\": " << format_double(regret_budget) << ",\n";
  out << "  \"baseline_epsilon\": " << format_double(baseline_epsilon)
      << ",\n";
  out << "  \"reference_weights\": ";
  append_array(out, reference_weights);
  out << ",\n  \"strata\": [\n";
  for (std::size_t s = 0; s < num_actions; ++s) {
    out << "    {\"stratum\": " << s << ", \"weight\": "
        << format_double(s < stratum_weights.size() ? stratum_weights[s] : 0)
        << ", \"distribution\": ";
    append_array(out, std::vector<double>(
                          distributions.begin() + s * num_actions,
                          distributions.begin() + (s + 1) * num_actions));
    out << '}' << (s + 1 < num_actions ? "," : "") << '\n';
  }
  out << "  ],\n";
  out << "  \"candidates\": [";
  for (std::size_t i = 0; i < candidate_names.size(); ++i) {
    if (i) out << ", ";
    out << '"' << util::json::escape(candidate_names[i]) << '"';
  }
  out << "],\n";
  out << "  \"objective\": {\"planned\": " << format_double(planned_objective)
      << ", \"baseline\": " << format_double(baseline_objective) << "}\n";
  out << "}\n";
  return out.str();
}

LoggingPlan LoggingPlan::parse_json(std::string_view text,
                                    const std::string& origin) {
  util::json::Value root;
  try {
    root = util::json::parse(text, origin);
  } catch (const util::json::Error& e) {
    fail(origin, e.detail());
  }
  if (!root.as_object()) fail(origin, "top level is not an object");
  LoggingPlan plan;
  plan.version =
      static_cast<std::uint32_t>(require_count(root, "logging_plan", origin));
  if (plan.version != kPlanVersion) {
    fail(origin, "unsupported plan version " + std::to_string(plan.version));
  }
  plan.num_actions = require_count(root, "num_actions", origin);
  plan.dim = require_count(root, "dim", origin);
  plan.propensity_floor = require_number(root, "propensity_floor", origin);
  plan.regret_budget = require_number(root, "regret_budget", origin);
  plan.baseline_epsilon = require_number(root, "baseline_epsilon", origin);
  plan.reference_weights = require_number_array(root, "reference_weights", origin);

  const util::json::Value* strata = root.find("strata");
  if (!strata || !strata->as_array() ||
      strata->as_array()->size() != plan.num_actions) {
    fail(origin, "\"strata\" must be an array with one entry per action");
  }
  plan.distributions.assign(plan.num_actions * plan.num_actions, 0);
  plan.stratum_weights.assign(plan.num_actions, 0);
  for (const util::json::Value& entry : *strata->as_array()) {
    if (!entry.as_object()) {
      fail(origin, "stratum entry is not an object");
    }
    const std::size_t s = require_count(entry, "stratum", origin);
    if (s >= plan.num_actions) fail(origin, "stratum index out of range");
    plan.stratum_weights[s] = require_number(entry, "weight", origin);
    const std::vector<double> dist =
        require_number_array(entry, "distribution", origin);
    if (dist.size() != plan.num_actions) {
      fail(origin, "stratum distribution has wrong arity");
    }
    std::copy(dist.begin(), dist.end(),
              plan.distributions.begin() + s * plan.num_actions);
  }

  if (const util::json::Value* names = root.find("candidates");
      names && names->as_array()) {
    for (const util::json::Value& n : *names->as_array()) {
      if (!n.as_string()) fail(origin, "candidate name is not a string");
      plan.candidate_names.push_back(*n.as_string());
    }
  }
  if (const util::json::Value* obj = root.find("objective");
      obj && obj->as_object()) {
    plan.planned_objective = require_number(*obj, "planned", origin);
    plan.baseline_objective = require_number(*obj, "baseline", origin);
  }

  try {
    plan.validate();
  } catch (const std::invalid_argument& e) {
    fail(origin, e.what());
  }
  return plan;
}

}  // namespace harvest::design
