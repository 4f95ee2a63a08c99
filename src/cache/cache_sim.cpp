#include "cache/cache_sim.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "obs/metrics.h"

namespace harvest::cache {

namespace {

/// Field prefix for candidate i in an evict record.
std::string cand_field(std::size_t i, const char* suffix) {
  return "c" + std::to_string(i) + "_" + suffix;
}

}  // namespace

CacheResult run_cache(const CacheConfig& config, Workload& workload,
                      Evictor& evictor, util::Rng& rng) {
  if (config.capacity_bytes == 0) {
    throw std::invalid_argument("run_cache: capacity required");
  }
  if (config.num_requests <= config.warmup_requests) {
    throw std::invalid_argument("run_cache: num_requests <= warmup");
  }
  if (config.request_rate <= 0) {
    throw std::invalid_argument("run_cache: request_rate > 0");
  }

  CacheStore store(config.capacity_bytes, config.eviction_samples,
                   config.eviction_pool);
  CacheResult result;
  // Per-decision observability hooks (handles resolved once, hot loop
  // records through them).
  obs::Registry& registry = obs::Registry::global();
  obs::Counter& obs_hits =
      registry.counter("cache_requests_total", {{"result", "hit"}});
  obs::Counter& obs_misses =
      registry.counter("cache_requests_total", {{"result", "miss"}});
  obs::Counter& obs_evictions = registry.counter("cache_evictions_total");

  bool measuring = false;
  double now = 0;
  store.set_eviction_observer([&](const EvictionEvent& event) {
    if (!measuring || !config.keep_log) return;
    logs::Record rec;
    rec.time = event.time;
    rec.event = "evict";
    rec.set("nc", static_cast<std::int64_t>(event.candidates.size()));
    rec.set("slot", static_cast<std::int64_t>(event.chosen));
    rec.set("prop", event.choice_distribution[event.chosen]);
    rec.set("victim",
            static_cast<std::int64_t>(event.candidates[event.chosen].key));
    for (std::size_t i = 0; i < event.candidates.size(); ++i) {
      const core::FeatureVector f = event.candidates[i].to_features(event.time);
      rec.set(cand_field(i, "size"), f[0]);
      rec.set(cand_field(i, "idle"), f[1]);
      rec.set(cand_field(i, "rate"), f[2]);
      rec.set(cand_field(i, "age"), f[3]);
    }
    result.log.append(std::move(rec));
  });

  for (std::size_t i = 0; i < config.num_requests; ++i) {
    measuring = i >= config.warmup_requests;
    now = static_cast<double>(i) / config.request_rate;
    const Key key = workload.next(rng);
    const bool hit = store.lookup(key, now);
    if (!hit) {
      store.insert(key, workload.size_of(key), now, evictor, rng);
    }
    if (!measuring) continue;
    ++result.measured_requests;
    if (hit) {
      ++result.hits;
      obs_hits.add(1);
    } else {
      ++result.misses;
      obs_misses.add(1);
    }
    if (config.on_access) config.on_access(key, hit);
    if (config.keep_log) {
      logs::Record rec;
      rec.time = now;
      rec.event = "access";
      rec.set("key", static_cast<std::int64_t>(key));
      rec.set("hit", static_cast<std::int64_t>(hit ? 1 : 0));
      result.log.append(std::move(rec));
    }
  }

  result.evictions = store.evictions();
  obs_evictions.add(static_cast<double>(result.evictions));
  result.hit_rate = result.measured_requests == 0
                        ? 0.0
                        : static_cast<double>(result.hits) /
                              static_cast<double>(result.measured_requests);
  return result;
}

EvictionHarvest harvest_evictions(const logs::LogStore& log, std::size_t k,
                                  double horizon_seconds) {
  if (k == 0) throw std::invalid_argument("harvest_evictions: k >= 1");
  if (horizon_seconds <= 0) {
    throw std::invalid_argument("harvest_evictions: horizon > 0");
  }

  EvictionHarvest harvest;
  harvest.horizon_seconds = horizon_seconds;
  harvest.slot_data = core::ExplorationDataset(
      k, core::RewardRange{0.0, 1.0});

  // Reward reconstruction: first access of the victim after the eviction
  // ("we reconstruct this information during step 1 by looking ahead in the
  // logs", §3). Evict records name the victim under "victim" while access
  // records use "key": index the accesses by key, then binary-search each
  // eviction's first strictly later access.
  // Per-key sorted access timestamps.
  std::unordered_map<std::string, std::vector<double>> access_times;
  for (const auto& rec : log.records()) {
    if (rec.event != "access") continue;
    const std::string* key = rec.text("key");
    if (key == nullptr) continue;
    access_times[*key].push_back(rec.time);
  }
  for (auto& [key, times] : access_times) {
    std::sort(times.begin(), times.end());
  }

  for (const auto& rec : log.records()) {
    if (rec.event != "evict") continue;
    ++harvest.decisions_seen;
    const auto nc = rec.integer("nc");
    const auto slot = rec.integer("slot");
    const auto prop = rec.number("prop");
    const std::string* victim = rec.text("victim");
    if (!nc || !slot || !prop || victim == nullptr ||
        static_cast<std::size_t>(*nc) != k || *slot < 0 ||
        static_cast<std::size_t>(*slot) >= k || *prop <= 0 || *prop > 1) {
      // Out-of-range propensities are quarantined here, not downstream:
      // corrupt logs must degrade the sample, never abort the harvest.
      ++harvest.dropped;
      continue;
    }

    std::vector<double> context;
    context.reserve(k * ItemMeta::kNumFeatures);
    bool missing = false;
    for (std::size_t i = 0; i < k && !missing; ++i) {
      for (const char* suffix : {"size", "idle", "rate", "age"}) {
        const auto v = rec.number(cand_field(i, suffix));
        if (!v) {
          missing = true;
          break;
        }
        context.push_back(*v);
      }
    }
    if (missing) {
      ++harvest.dropped;
      continue;
    }

    // Normalized time-to-next-access: capped at the horizon; never
    // re-accessed within the horizon counts as the full horizon (best).
    double ttna = horizon_seconds;
    const auto at = access_times.find(*victim);
    if (at != access_times.end()) {
      const auto next =
          std::upper_bound(at->second.begin(), at->second.end(), rec.time);
      if (next != at->second.end()) {
        ttna = std::min(*next - rec.time, horizon_seconds);
      }
    }
    const double reward = ttna / horizon_seconds;

    const auto slot_idx = static_cast<std::size_t>(*slot);
    std::vector<double> victim_features(
        context.begin() +
            static_cast<std::ptrdiff_t>(slot_idx * ItemMeta::kNumFeatures),
        context.begin() +
            static_cast<std::ptrdiff_t>((slot_idx + 1) *
                                        ItemMeta::kNumFeatures));
    harvest.victim_samples.emplace_back(
        core::FeatureVector(std::move(victim_features)), reward);
    harvest.slot_data.add(core::ExplorationPoint{
        core::FeatureVector(std::move(context)),
        static_cast<core::ActionId>(slot_idx), reward, *prop});
  }
  return harvest;
}

core::RewardModelPtr train_cb_eviction_model(const EvictionHarvest& harvest,
                                             double ridge_lambda) {
  if (harvest.victim_samples.empty()) {
    throw std::invalid_argument("train_cb_eviction_model: no samples");
  }
  auto model = std::make_shared<core::RidgeRewardModel>(
      1, ItemMeta::kNumFeatures, ridge_lambda);
  for (const auto& [features, reward] : harvest.victim_samples) {
    model->observe(features, 0, reward);
  }
  model->fit();
  return model;
}

CacheConfig table3_config(const Workload& workload) {
  CacheConfig config;
  // ~62% of the working set: holds all small items the freq/size policy
  // wants (682 of 900) while forcing constant eviction pressure.
  config.capacity_bytes =
      static_cast<std::size_t>(0.62 *
                               static_cast<double>(
                                   workload.working_set_bytes()));
  config.eviction_samples = 16;
  config.num_requests = 200000;
  config.warmup_requests = 40000;
  config.request_rate = 1000.0;
  return config;
}

}  // namespace harvest::cache
