#include "lb/lb_sim.h"

#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "sim/simulator.h"
#include "stats/distributions.h"

namespace harvest::lb {

double latency_to_reward(double latency, double cap) {
  const double clamped = latency < 0 ? 0 : (latency > cap ? cap : latency);
  return 1.0 - clamped / cap;
}

double reward_to_latency(double reward, double cap) {
  return (1.0 - reward) * cap;
}

LbResult run_lb(const LbConfig& config, Router& router, util::Rng& rng) {
  if (config.servers.empty()) {
    throw std::invalid_argument("run_lb: no servers configured");
  }
  if (router.num_servers() != config.servers.size()) {
    throw std::invalid_argument("run_lb: router/server count mismatch");
  }
  if (config.num_requests <= config.warmup_requests) {
    throw std::invalid_argument("run_lb: num_requests <= warmup_requests");
  }

  std::vector<Server> servers;
  servers.reserve(config.servers.size());
  for (const auto& sc : config.servers) servers.emplace_back(sc);

  sim::Simulator simulator;
  obs::Histogram latency_metric;
  // Per-decision observability hooks: handles resolved once, recorded per
  // routed request (see obs/metrics.h concurrency contract).
  obs::Registry& registry = obs::Registry::global();
  obs::Histogram& obs_latency = registry.histogram("lb_latency_seconds");
  obs::Counter& obs_faults = registry.counter("lb_faults_total");
  std::vector<obs::Counter*> obs_requests;
  obs_requests.reserve(config.servers.size());
  for (std::size_t s = 0; s < config.servers.size(); ++s) {
    obs_requests.push_back(&registry.counter(
        "lb_requests_total", {{"server", std::to_string(s)}}));
  }
  LbResult result;
  result.per_server_requests.assign(servers.size(), 0);
  result.exploration = core::ExplorationDataset(
      servers.size(), core::RewardRange{0.0, 1.0});
  result.exploration.reserve(config.num_requests - config.warmup_requests);

  stats::PoissonProcess arrivals(config.arrival_rate, rng.split());
  util::Rng route_rng = rng.split();

  // Chaos injection: Poisson fault arrivals over the whole run; each fault
  // degrades one random server for a fixed duration, with matching
  // fault/fault_end log records (reliability tests are logged events too).
  if (config.faults.rate_per_second > 0) {
    if (config.faults.slowdown < 1.0 || config.faults.duration_seconds <= 0) {
      throw std::invalid_argument("run_lb: invalid fault injection config");
    }
    const double run_span = static_cast<double>(config.num_requests) /
                            config.arrival_rate;
    stats::PoissonProcess fault_arrivals(config.faults.rate_per_second,
                                         rng.split());
    util::Rng fault_rng = rng.split();
    for (double when = fault_arrivals.next(); when < run_span;
         when = fault_arrivals.next()) {
      const std::size_t victim = fault_rng.uniform_index(servers.size());
      simulator.schedule_at(when, [&, victim] {
        servers[victim].set_degradation(config.faults.slowdown);
        obs_faults.add(1);
        if (config.keep_log) {
          logs::Record rec;
          rec.time = simulator.now();
          rec.event = "fault";
          rec.set("server", static_cast<std::int64_t>(victim));
          rec.set("slowdown", config.faults.slowdown);
          result.log.append(std::move(rec));
        }
      });
      simulator.schedule_at(when + config.faults.duration_seconds,
                            [&, victim] {
        servers[victim].set_degradation(1.0);
        if (config.keep_log) {
          logs::Record rec;
          rec.time = simulator.now();
          rec.event = "fault_end";
          rec.set("server", static_cast<std::int64_t>(victim));
          result.log.append(std::move(rec));
        }
      });
    }
  }

  for (std::size_t i = 0; i < config.num_requests; ++i) {
    const double when = arrivals.next();
    const bool measured = i >= config.warmup_requests;
    simulator.schedule_at(when, [&, measured] {
      RoutingContext ctx;
      ctx.open_connections.reserve(servers.size());
      for (const auto& s : servers) {
        ctx.open_connections.push_back(s.open_connections());
      }
      ctx.request_heavy = route_rng.bernoulli(config.heavy_fraction);
      if (config.expose_health) {
        ctx.degradations.reserve(servers.size());
        for (const auto& s : servers) {
          ctx.degradations.push_back(s.degradation());
        }
      }
      const std::vector<double> dist = router.distribution(ctx);
      const std::size_t choice = router.route(ctx, route_rng);
      if (choice >= servers.size()) {
        throw std::logic_error("run_lb: router chose invalid server");
      }
      const double latency = servers[choice].admit(ctx.request_heavy);
      simulator.schedule(latency, [&servers, choice] {
        servers[choice].release();
      });

      if (!measured) return;
      latency_metric.record(latency);
      obs_latency.observe(latency);
      obs_requests[choice]->add(1);
      ++result.per_server_requests[choice];

      if (config.keep_log) {
        logs::Record rec;
        rec.time = simulator.now();
        rec.event = "route";
        for (std::size_t s = 0; s < ctx.open_connections.size(); ++s) {
          rec.set("conns" + std::to_string(s),
                  static_cast<std::int64_t>(ctx.open_connections[s]));
        }
        rec.set("heavy", static_cast<std::int64_t>(ctx.request_heavy ? 1 : 0));
        for (std::size_t s = 0; s < ctx.degradations.size(); ++s) {
          rec.set("deg" + std::to_string(s), ctx.degradations[s]);
        }
        rec.set("server", static_cast<std::int64_t>(choice));
        rec.set("latency", latency);
        result.log.append(std::move(rec));
      }
      if (dist[choice] > 0) {
        result.exploration.add(core::ExplorationPoint{
            ctx.to_features(), static_cast<core::ActionId>(choice),
            latency_to_reward(latency, config.latency_cap), dist[choice]});
      }
    });
  }

  simulator.run();

  result.mean_latency = latency_metric.mean();
  result.p50_latency = latency_metric.p50();
  result.p99_latency = latency_metric.p99();
  result.measured_requests = latency_metric.count();
  return result;
}

LbConfig fig5_config() {
  LbConfig config;
  // Server 1 fast, server 2 slower by an additive constant (Fig. 5); the
  // shared slope makes latency linear in open connections. Server 2 also
  // penalizes "heavy" requests — the request-specific context of §5 that a
  // CB policy can learn and least-loaded cannot.
  config.servers = {
      ServerConfig{0.18, 0.02, 0.00, 2.0},  // server 1
      ServerConfig{0.30, 0.02, 0.16, 2.0},  // server 2
  };
  config.arrival_rate = 35.0;
  config.num_requests = 30000;
  config.warmup_requests = 2000;
  config.heavy_fraction = 0.5;
  config.latency_cap = 2.0;
  return config;
}

}  // namespace harvest::lb
