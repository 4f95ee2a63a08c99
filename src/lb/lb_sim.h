// The closed-loop load-balancer simulation (our stand-in for the paper's
// Nginx prototype). Drives Poisson request arrivals through a Router over a
// fleet of Servers, writes the same access log a production proxy would, and
// — when the router is randomized — harvests exploration data from it.
//
// Crucially, the loop is *closed*: routing decisions change open-connection
// counts, which change future contexts. This is the A1 violation (§5) that
// makes naive off-policy evaluation break for "send to 1".
#pragma once

#include <vector>

#include "core/dataset.h"
#include "lb/router.h"
#include "lb/server.h"
#include "logs/log_store.h"
#include "util/rng.h"

namespace harvest::lb {

/// Experiment parameters.
/// Chaos-Monkey-style fault injection (§5: "reliability testing ... can
/// trigger uneven traffic and extreme conditions that lead to broader
/// exploration"). Faults arrive as a Poisson process; each picks a random
/// server and slows it by `slowdown` for `duration_seconds`.
struct FaultInjectionConfig {
  double rate_per_second = 0.0;  ///< 0 disables injection
  double duration_seconds = 20.0;
  double slowdown = 3.0;         ///< latency multiplier while degraded
};

struct LbConfig {
  std::vector<ServerConfig> servers;
  double arrival_rate = 35.0;        ///< requests per second (Poisson)
  std::size_t num_requests = 20000;  ///< total arrivals to simulate
  std::size_t warmup_requests = 500; ///< excluded from metrics and logs
  double heavy_fraction = 0.0;       ///< share of requests that are "heavy"
  double latency_cap = 2.0;          ///< reward normalization: r = 1 - lat/cap
  bool keep_log = true;              ///< retain the text-equivalent LogStore
  FaultInjectionConfig faults;       ///< optional chaos injection
  /// Expose per-server health (degradation factors) in the routing context
  /// and the log — what a proxy's health probes would provide.
  bool expose_health = false;
};

/// What one deployment run produces.
struct LbResult {
  double mean_latency = 0;
  double p50_latency = 0;
  double p99_latency = 0;
  std::vector<std::size_t> per_server_requests;
  std::size_t measured_requests = 0;
  logs::LogStore log;                  ///< what the system would have logged
  core::ExplorationDataset exploration;///< harvested ⟨x,a,r,p⟩ (post-warmup)

  LbResult() : exploration(1, core::RewardRange{}) {}
};

/// Latency-to-reward mapping shared by the simulator and the benches:
/// rewards in [0,1], higher is better.
double latency_to_reward(double latency, double cap);
double reward_to_latency(double reward, double cap);

/// Runs one deployment of `router` under `config`. The router is mutated
/// (epoch weights), so pass a fresh one per run.
LbResult run_lb(const LbConfig& config, Router& router, util::Rng& rng);

/// The two-server Fig. 5 configuration used throughout Table 2 benches:
/// server 2 slower than server 1 by an additive constant.
LbConfig fig5_config();

}  // namespace harvest::lb
