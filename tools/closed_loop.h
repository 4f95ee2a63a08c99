// What the closed-loop tools (harvest_serve, harvest_design) share about a
// round: the simulated world they serve decisions into, one round of serving
// against it, and the HLOG dataset each round is logged to.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "serve/service.h"
#include "store/dataset.h"
#include "util/hash.h"
#include "util/rng.h"

namespace harvest::tools {

/// Action a in context x pays clamp01(w_a · [1, x]) plus small uniform
/// noise. Linear in the features, so the ridge retrain can actually learn
/// it.
struct Environment {
  std::vector<std::vector<double>> true_weights;  // [action][dim+1]

  /// Clearly separated actions, drawn from `seed`'s environment stream.
  static Environment make(std::size_t num_actions, std::size_t dim,
                          std::uint64_t seed) {
    util::Rng rng(util::derive_stream_seed(seed, 1000));
    Environment env;
    env.true_weights.assign(num_actions, std::vector<double>(dim + 1));
    for (auto& w : env.true_weights) {
      for (auto& v : w) v = rng.uniform(-0.4, 0.4);
      w[0] += 0.5;  // keep rewards centered inside [0, 1]
    }
    return env;
  }

  double reward(std::span<const double> x, std::uint32_t action,
                util::Rng& rng) const {
    const auto& w = true_weights[action];
    double r = w[0];
    for (std::size_t i = 0; i < x.size(); ++i) r += w[1 + i] * x[i];
    r += rng.uniform(-0.05, 0.05);
    return std::clamp(r, 0.0, 1.0);
  }
};

/// Decisions are "serve" events with context x0..x{dim-1}, an action, a
/// reward in [0, 1] and the logged propensity.
inline store::Schema make_schema(std::size_t num_actions, std::size_t dim) {
  store::Schema schema;
  schema.decision_event = "serve";
  for (std::size_t i = 0; i < dim; ++i) {
    schema.context_fields.push_back("x" + std::to_string(i));
  }
  schema.action_field = "action";
  schema.reward_field = "reward";
  schema.propensity_field = "propensity";
  schema.num_actions = static_cast<std::uint32_t>(num_actions);
  schema.reward_lo = 0;
  schema.reward_hi = 1;
  return schema;
}

/// Serves `per_thread` decisions on each decider, one thread per decider:
/// contexts uniform on [0, 1)^dim, rewards paid by `env` and logged at once.
/// Decider t draws its contexts from stream 2t of `stream_seed` and its
/// reward noise from stream 2t + 1. Returns the mean reward.
inline double serve_round(const std::vector<serve::Decider*>& deciders,
                          const Environment& env, std::size_t dim,
                          std::size_t per_thread, std::uint64_t stream_seed) {
  std::vector<double> sums(deciders.size(), 0.0);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < deciders.size(); ++t) {
    workers.emplace_back([&, t] {
      util::Rng ctx_rng(util::derive_stream_seed(stream_seed, 2 * t));
      util::Rng env_noise(util::derive_stream_seed(stream_seed, 2 * t + 1));
      double ctx[serve::kMaxContextDim] = {};
      const std::span<const double> span(ctx, dim);
      for (std::size_t i = 0; i < per_thread; ++i) {
        for (std::size_t d = 0; d < dim; ++d) ctx[d] = ctx_rng.uniform();
        const serve::Decision dec = deciders[t]->decide(span);
        const double r = env.reward(span, dec.action, env_noise);
        deciders[t]->log_reward(r);
        sums[t] += r;
      }
    });
  }
  for (auto& w : workers) w.join();
  double mean = 0;
  for (double s : sums) mean += s;
  return mean / static_cast<double>(per_thread * deciders.size());
}

/// Drains the service's logged decisions into a fresh HLOG dataset at `dir`
/// (replacing whatever a killed earlier run left there), skipping decisions
/// that never got a reward.
inline serve::ServeDrainStats log_round(serve::DecisionService& service,
                                        const std::string& dir,
                                        const store::Schema& schema) {
  std::error_code stale_ec;
  std::filesystem::remove_all(dir, stale_ec);
  store::DatasetWriter writer(dir, schema);
  const serve::ServeDrainStats stats =
      service.drain([&writer](const serve::DecisionRecord& rec) {
        if (std::isnan(rec.reward)) return;
        writer.add(rec.time, std::span<const double>(rec.context, rec.dim),
                   rec.action, rec.reward, rec.propensity);
      });
  writer.finish();
  return stats;
}

}  // namespace harvest::tools
