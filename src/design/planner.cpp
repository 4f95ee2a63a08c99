#include "design/planner.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/linalg.h"
#include "par/parallel.h"

namespace harvest::design {

namespace {

/// Per-shard sufficient statistics of the cost model, merged in shard order
/// (vector adds are associative and the shard plan is thread-count
/// independent, so the totals are bit-identical for any --threads).
struct CostStats {
  std::vector<double> counts;    // [s]       points per stratum
  std::vector<double> mu;        // [s*K+a]   sum of rhat(x, a)
  std::vector<double> best_sum;  // [s]       sum of max_a rhat(x, a)
  std::vector<double> pi2;       // [k][s][a] sum of pi_k(a|x)^2
  std::vector<double> pi2_r2;    // [k][s][a] sum of pi_k(a|x)^2 rhat(x,a)^2
  double ss_resid = 0;           // sum of (r - rhat(x, a_logged))^2

  static CostStats zero(std::size_t num_candidates, std::size_t k) {
    CostStats s;
    s.counts.assign(k, 0);
    s.mu.assign(k * k, 0);
    s.best_sum.assign(k, 0);
    s.pi2.assign(num_candidates * k * k, 0);
    s.pi2_r2.assign(num_candidates * k * k, 0);
    return s;
  }

  CostStats& operator+=(const CostStats& o) {
    for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += o.counts[i];
    for (std::size_t i = 0; i < mu.size(); ++i) mu[i] += o.mu[i];
    for (std::size_t i = 0; i < best_sum.size(); ++i) {
      best_sum[i] += o.best_sum[i];
    }
    for (std::size_t i = 0; i < pi2.size(); ++i) pi2[i] += o.pi2[i];
    for (std::size_t i = 0; i < pi2_r2.size(); ++i) pi2_r2[i] += o.pi2_r2[i];
    ss_resid += o.ss_resid;
    return *this;
  }
};

/// Exact minimizer of sum_a cost[a] / q[a] over {q >= floor, sum q = 1}:
/// Neyman allocation q proportional to sqrt(cost), water-filled against the
/// floor via bisection on the normalizer (the constraint sum is monotone in
/// it). All-zero costs fall back to `fallback` (no data to trade off).
void neyman_row(std::span<const double> cost, double floor,
                std::span<const double> fallback, std::span<double> q) {
  const std::size_t k = cost.size();
  // q holds sqrt(max(cost, 0)) until the final allocation overwrites it, so
  // the bisection below reads each root instead of recomputing it per step.
  double total_sqrt = 0;
  for (std::size_t a = 0; a < k; ++a) {
    q[a] = std::sqrt(std::max(cost[a], 0.0));
    total_sqrt += q[a];
  }
  if (!(total_sqrt > 0)) {
    std::copy(fallback.begin(), fallback.end(), q.begin());
    return;
  }
  // sum_a max(floor, sqrt(c_a)/nu) = 1. At nu -> 0 the sum exceeds 1 (it
  // approaches +inf on any positive cost); at nu = total_sqrt/(1 - K*floor)
  // the unfloored mass alone is 1 - K*floor <= sum <= 1 only if... bracket
  // generously and bisect: the sum is continuous and non-increasing in nu.
  double lo = total_sqrt;  // sum >= sum sqrt(c)/nu = 1 at nu = total_sqrt
  double hi = total_sqrt;
  const double slack = 1.0 - floor * static_cast<double>(k);
  if (slack <= 0) {
    // Floor consumes the whole simplex: the only feasible row is uniform.
    for (std::size_t a = 0; a < k; ++a) q[a] = 1.0 / static_cast<double>(k);
    return;
  }
  hi = total_sqrt / slack;  // every coordinate at/below its floor share
  auto mass = [&](double nu) {
    double m = 0;
    for (const double root : q) m += std::max(floor, root / nu);
    return m;
  };
  // Expand the bracket defensively (floors can push mass above 1 at lo).
  while (mass(hi) > 1.0) hi *= 2;
  for (int it = 0; it < 200; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (mass(mid) > 1.0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double nu = hi;
  double sum = 0;
  for (std::size_t a = 0; a < k; ++a) {
    q[a] = std::max(floor, q[a] / nu);
    sum += q[a];
  }
  // Exact renormalization of the residual bisection error; the floored
  // coordinates only grow (sum <= 1 + tiny), so dividing keeps q >= floor
  // up to the validator's tolerance.
  for (std::size_t a = 0; a < k; ++a) q[a] /= sum;
}

}  // namespace

PlannerReport plan_logging(const core::ExplorationDataset& harvest,
                           const std::vector<core::PolicyPtr>& candidates,
                           const core::RewardModel& model,
                           std::vector<double> reference_weights,
                           std::size_t dim, const PlannerConfig& config) {
  const std::size_t k = harvest.num_actions();
  const std::size_t n = harvest.size();
  if (n == 0) throw std::invalid_argument("plan_logging: empty harvest");
  if (candidates.empty()) {
    throw std::invalid_argument("plan_logging: no candidate policies");
  }
  if (model.num_actions() != k) {
    throw std::invalid_argument("plan_logging: reward-model action mismatch");
  }
  for (const auto& c : candidates) {
    if (!c || c->num_actions() != k) {
      throw std::invalid_argument("plan_logging: candidate action mismatch");
    }
  }
  if (reference_weights.size() != k * (dim + 1)) {
    throw std::invalid_argument(
        "plan_logging: reference_weights must be num_actions * (dim + 1)");
  }
  const double floor = config.propensity_floor;
  const double eps = config.baseline_epsilon;
  // A zero floor would let zero-cost actions get zero propensity, making
  // future harvests of those actions impossible — require strictly positive.
  if (!(floor > 0) || floor * static_cast<double>(k) > 1.0) {
    throw std::invalid_argument("plan_logging: infeasible propensity floor");
  }
  if (!(eps > 0 && eps <= 1) || floor > eps / static_cast<double>(k)) {
    throw std::invalid_argument(
        "plan_logging: baseline_epsilon must be in (0, 1] with "
        "floor <= epsilon / num_actions");
  }
  const std::size_t num_cand = candidates.size();
  const auto& pts = harvest.points();
  for (const auto& pt : pts) {
    if (pt.context.size() != dim) {
      throw std::invalid_argument(
          "plan_logging: context arity does not match dim");
    }
  }

  // ---- pass 1: deterministic parallel cost accumulation -----------------
  const core::LinearScorer reference(reference_weights, k);
  const CostStats stats = par::parallel_reduce(
      par::default_pool(), par::ShardPlan::fixed(n), CostStats::zero(num_cand, k),
      [&](std::size_t, std::size_t begin, std::size_t end) {
        CostStats p = CostStats::zero(num_cand, k);
        std::vector<double> rhat(k), pi(k);
        for (std::size_t i = begin; i < end; ++i) {
          const auto& pt = pts[i];
          const std::size_t s = reference.argmax(pt.context.values());
          p.counts[s] += 1;
          model.predict_all(pt.context, rhat);
          double best = -std::numeric_limits<double>::infinity();
          for (std::size_t a = 0; a < k; ++a) {
            p.mu[s * k + a] += rhat[a];
            best = std::max(best, rhat[a]);
          }
          p.best_sum[s] += best;
          const double resid = pt.reward - rhat[pt.action];
          p.ss_resid += resid * resid;
          for (std::size_t c = 0; c < num_cand; ++c) {
            candidates[c]->distribution_into(pt.context, pi);
            for (std::size_t a = 0; a < k; ++a) {
              const double pi2 = pi[a] * pi[a];
              p.pi2[(c * k + s) * k + a] += pi2;
              p.pi2_r2[(c * k + s) * k + a] += pi2 * rhat[a] * rhat[a];
            }
          }
        }
        return p;
      },
      [](CostStats acc, const CostStats& p) {
        acc += p;
        return acc;
      });

  const double sigma2 = stats.ss_resid / static_cast<double>(n);
  // C[k][s][a] = sum pi^2 rhat^2 + sigma^2 * sum pi^2 (second moment of the
  // modeled reward around zero plus the harvest's residual noise).
  std::vector<double> cost(num_cand * k * k);
  for (std::size_t i = 0; i < cost.size(); ++i) {
    cost[i] = stats.pi2_r2[i] + sigma2 * stats.pi2[i];
  }

  // ---- closed-form helpers over a plan matrix q [s*K+a] -----------------
  const double inv_n = 1.0 / static_cast<double>(n);
  auto variance_of = [&](std::size_t c, const std::vector<double>& q) {
    double v = 0;
    for (std::size_t s = 0; s < k; ++s) {
      for (std::size_t a = 0; a < k; ++a) {
        const double cs = cost[(c * k + s) * k + a];
        if (cs > 0) v += cs / q[s * k + a];
      }
    }
    return v * inv_n;
  };
  auto objective_of = [&](const std::vector<double>& q) {
    double worst = 0;
    for (std::size_t c = 0; c < num_cand; ++c) {
      worst = std::max(worst, variance_of(c, q));
    }
    return worst;
  };
  auto regret_of = [&](const std::vector<double>& q) {
    double r = 0;
    for (std::size_t s = 0; s < k; ++s) {
      double played = 0;
      for (std::size_t a = 0; a < k; ++a) {
        played += q[s * k + a] * stats.mu[s * k + a];
      }
      r += stats.best_sum[s] - played;
    }
    return r * inv_n;
  };

  // Baseline: eps-greedy over the reference policy. Stratum s's greedy
  // action IS s, so the row is eps/K everywhere plus 1-eps on the diagonal.
  std::vector<double> base(k * k, eps / static_cast<double>(k));
  for (std::size_t s = 0; s < k; ++s) base[s * k + s] += 1.0 - eps;

  // Floored model-greedy: the lowest-regret feasible row per stratum; also
  // the mixing target that enforces the regret budget.
  std::vector<double> greedy_plan(k * k, floor);
  for (std::size_t s = 0; s < k; ++s) {
    const std::size_t best_a = core::argmax_first(
        k, [&](std::size_t a) { return stats.mu[s * k + a]; });
    greedy_plan[s * k + best_a] += 1.0 - floor * static_cast<double>(k);
  }

  const double baseline_regret = regret_of(base);
  const double budget = std::isnan(config.regret_budget)
                            ? baseline_regret
                            : config.regret_budget;

  auto enforce_regret = [&](std::vector<double>& q) {
    const double r = regret_of(q);
    if (r <= budget) return;
    const double rg = regret_of(greedy_plan);
    if (rg >= r) return;  // mixing cannot help
    // Regret is linear in q, so the exact mix toward the floored-greedy
    // plan that lands on the budget is closed form.
    const double gamma = std::clamp((r - budget) / (r - rg), 0.0, 1.0);
    for (std::size_t i = 0; i < q.size(); ++i) {
      q[i] = (1.0 - gamma) * q[i] + gamma * greedy_plan[i];
    }
  };

  // ---- saddle-point solve ----------------------------------------------
  // Adversary mixture over candidates (exponentiated gradient); the inner
  // min over q is Neyman allocation per stratum on the mixed costs.
  std::vector<double> lambda(num_cand, 1.0 / static_cast<double>(num_cand));
  std::vector<double> mixed(k), q(k * k), best_q = base;
  enforce_regret(best_q);  // baseline may exceed an explicit tight budget
  double best_obj = objective_of(best_q);
  std::size_t iterations_run = 0;
  for (std::size_t it = 0; it < config.iterations; ++it) {
    ++iterations_run;
    for (std::size_t s = 0; s < k; ++s) {
      for (std::size_t a = 0; a < k; ++a) {
        double m = 0;
        for (std::size_t c = 0; c < num_cand; ++c) {
          m += lambda[c] * cost[(c * k + s) * k + a];
        }
        mixed[a] = m;
      }
      neyman_row(mixed, floor,
                 std::span<const double>(base).subspan(s * k, k),
                 std::span<double>(q).subspan(s * k, k));
    }
    enforce_regret(q);
    const double obj = objective_of(q);
    if (obj < best_obj) {
      best_obj = obj;
      best_q = q;
    }
    if (num_cand == 1) break;  // inner solve is already exact
    // Exponentiated-gradient ascent on the adversary: upweight the
    // candidates whose variance under q is largest.
    double scale = 0;
    std::vector<double> v(num_cand);
    for (std::size_t c = 0; c < num_cand; ++c) {
      v[c] = variance_of(c, q);
      scale = std::max(scale, v[c]);
    }
    if (!(scale > 0)) break;
    double z = 0;
    for (std::size_t c = 0; c < num_cand; ++c) {
      lambda[c] *= std::exp(config.mix_learning_rate * v[c] / scale);
      z += lambda[c];
    }
    for (double& l : lambda) l /= z;
  }

  // ---- fallback guarantee ----------------------------------------------
  const double baseline_objective = objective_of(base);
  bool fell_back = false;
  if (baseline_regret <= budget && best_obj > baseline_objective) {
    best_q = base;
    best_obj = baseline_objective;
    fell_back = true;
  }

  // ---- assemble the report ---------------------------------------------
  PlannerReport report;
  report.plan.num_actions = k;
  report.plan.dim = dim;
  // The eps-greedy fallback rows only guarantee eps/K mass per action, so
  // the emitted floor never overstates what the plan delivers.
  report.plan.propensity_floor =
      std::min(floor, eps / static_cast<double>(k));
  report.plan.regret_budget = budget;
  report.plan.baseline_epsilon = eps;
  report.plan.reference_weights = std::move(reference_weights);
  report.plan.distributions = best_q;
  report.plan.stratum_weights.resize(k);
  for (std::size_t s = 0; s < k; ++s) {
    report.plan.stratum_weights[s] = stats.counts[s] * inv_n;
  }
  for (const auto& c : candidates) {
    report.plan.candidate_names.push_back(c->name());
  }
  report.plan.planned_objective = best_obj;
  report.plan.baseline_objective = baseline_objective;
  report.candidates.resize(num_cand);
  for (std::size_t c = 0; c < num_cand; ++c) {
    report.candidates[c] = CandidateVariance{candidates[c]->name(),
                                             variance_of(c, best_q),
                                             variance_of(c, base)};
  }
  report.planned_objective = best_obj;
  report.baseline_objective = baseline_objective;
  report.planned_regret = regret_of(best_q);
  report.baseline_regret = baseline_regret;
  report.regret_budget = budget;
  report.residual_variance = sigma2;
  report.iterations_run = iterations_run;
  report.fell_back_to_baseline = fell_back;
  report.plan.validate();
  return report;
}

}  // namespace harvest::design
