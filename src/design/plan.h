// LoggingPlan: the versioned, deployable output of the logging-policy
// planner — the first artifact in this codebase that feeds decisions
// *backward* into how the system randomizes (the paper's stated future
// direction: go beyond harvesting the randomness that exists and shape
// what gets logged).
//
// A plan partitions contexts into strata and prescribes, per stratum, the
// exploration distribution the logging policy should draw actions from.
// The stratum of a context is the greedy action of a *reference* linear
// policy carried inside the plan — a pure function of (weights, context)
// that the serving hot path evaluates with zero allocations (both sides
// score it with a core::LinearScorer), and that makes the classic eps-greedy
// logging policy expressible as a plan: stratum s gets eps/K everywhere
// plus 1-eps on action s.
//
// Plans serialize to versioned JSON (kPlanVersion) with %.17g doubles, so
// a plan round-trips bit-exactly: the planner's determinism suite compares
// serialized bytes across thread counts.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace harvest::design {

inline constexpr std::uint32_t kPlanVersion = 1;

struct LoggingPlan {
  std::uint32_t version = kPlanVersion;
  std::size_t num_actions = 0;  ///< actions == strata (greedy-action strata)
  std::size_t dim = 0;          ///< raw context arity of the reference policy

  /// Constraints the planner enforced; carried so an executor can refuse a
  /// plan whose floor it cannot honor.
  double propensity_floor = 0;
  double regret_budget = 0;

  /// Reference linear policy defining the strata: num_actions rows of
  /// (dim+1) doubles, bias first (the serve::PolicySnapshot layout).
  std::vector<double> reference_weights;

  /// Row-major num_actions x num_actions: distributions[s * K + a] is the
  /// probability of logging action `a` for a context in stratum `s`. Every
  /// row sums to 1 and respects the floor.
  std::vector<double> distributions;

  // ---- audit metadata (not needed to execute the plan) ------------------
  std::vector<std::string> candidate_names;  ///< policies the plan protects
  std::vector<double> stratum_weights;  ///< empirical stratum masses (sum 1)
  double planned_objective = 0;   ///< minimax variance proxy under the plan
  double baseline_objective = 0;  ///< same objective under eps-greedy
  double baseline_epsilon = 0;    ///< the eps-greedy comparison point

  std::size_t num_strata() const { return num_actions; }

  /// The plan row for stratum `s`.
  std::span<const double> stratum_distribution(std::size_t s) const;

  /// Greedy action of the reference policy = the context's stratum, by
  /// core::LinearScorer::argmax (ties to the lowest action id, a NaN score
  /// never wins) — the kernel PolicySnapshot::greedy calls too, so the
  /// planner and the serving layer always agree on the stratum. Throws
  /// std::invalid_argument unless context.size() == dim.
  std::size_t stratum_of(std::span<const double> context) const;

  /// Throws std::invalid_argument on inconsistent geometry, a row that does
  /// not sum to 1 (1e-9 tolerance), a probability below the floor or
  /// outside (0, 1], or any non-finite value.
  void validate() const;

  /// Versioned JSON; doubles printed with %.17g so parse(to_json()) is
  /// bit-identical.
  std::string to_json() const;

  /// Parses and validates a plan. Throws std::invalid_argument naming
  /// `origin` on malformed JSON, an unsupported version, or any
  /// validate() failure — never returns a partially valid plan.
  static LoggingPlan parse_json(std::string_view text,
                                const std::string& origin);
};

}  // namespace harvest::design
