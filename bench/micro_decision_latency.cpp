// Microbenchmarks (google-benchmark) — the systems constraint of §6: the
// decisions being optimized (cache eviction, request routing) run on hot
// paths, so policies must decide in nanoseconds-to-microseconds; "deep
// neural networks or search based policies ... are too slow". These numbers
// document that the linear CB policies and estimators used here are fast
// enough to sit inside a load balancer or cache.
//
// Two modes:
//  - default: the google-benchmark microbenchmark suite below. Context
//    synthesis happens INSIDE the timed loop into a preallocated buffer, so
//    context ingestion is part of the measured decide path without adding
//    heap traffic (earlier revisions built the context once outside the
//    loop and so never measured it).
//  - `--serve-throughput`: the serving gate. Spins up a DecisionService
//    with N decider threads + 1 publisher swapping snapshots + 1 drainer,
//    measures decisions/sec/core, tail latency (p50/p99/p999/max) and the
//    share of decisions dropped on a full ring, verifies ZERO decide-path
//    allocations via the harvest_allocgate counting allocator, measures the
//    restart cost (persist the final snapshot to a SnapshotStore, then time
//    a warm restart: load CURRENT + construct a resumed service — the price
//    of crash recovery vs re-paying uniform-exploration regret), and writes
//    BENCH_serve.json. Exits non-zero when a gate fails:
//      --min-mops     minimum million-decisions/sec/core   (default 1.0)
//      --max-p99-us   p99 decide latency bound in usec     (default 200)
//    or when the warm restart fails to resume the published snapshot.
//    Other flags: --serve-threads, --serve-seconds, --swap-ms, --actions,
//    --dim, --epsilon, --seed, --snapshot-dir (default: a temp dir),
//    --json-out.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <filesystem>

#include "harvest/harvest.h"
#include "serve/alloc_gate.h"
#include "serve/persist.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "sim/event_queue.h"
#include "util/flags.h"

namespace {

using namespace harvest;

core::FeatureVector make_context(std::size_t dim, util::Rng& rng) {
  std::vector<double> values(dim);
  for (auto& v : values) v = rng.uniform();
  return core::FeatureVector(std::move(values));
}

/// Refills a preallocated context in place — the allocation-free way the
/// timed loops below synthesize a fresh context per decision.
void refill_context(core::FeatureVector& x, util::Rng& rng) {
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.uniform();
}

/// 256 uniform contexts drawn up front and handed out in turn, for the
/// kernel benches below, which time the kernel alone.
class ContextRing {
 public:
  ContextRing(std::size_t dim, util::Rng& rng) : dim_(dim), values_(256 * dim) {
    for (double& v : values_) v = rng.uniform();
  }
  std::span<const double> next() const {
    const std::size_t at = next_++ & 255;
    return std::span<const double>(values_).subspan(at * dim_, dim_);
  }

 private:
  std::size_t dim_;
  std::vector<double> values_;
  mutable std::size_t next_ = 0;
};

void BM_UniformRandomDecision(benchmark::State& state) {
  const core::UniformRandomPolicy policy(
      static_cast<std::size_t>(state.range(0)));
  util::Rng rng(1);
  core::FeatureVector x = make_context(4, rng);
  for (auto _ : state) {
    refill_context(x, rng);  // context ingestion is part of the decide path
    benchmark::DoNotOptimize(policy.act(x, rng));
  }
}
BENCHMARK(BM_UniformRandomDecision)->Arg(2)->Arg(25);

void BM_LinearGreedyDecision(benchmark::State& state) {
  const auto num_actions = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  util::Rng rng(2);
  std::vector<std::vector<double>> weights(num_actions,
                                           std::vector<double>(dim + 1));
  for (auto& w : weights) {
    for (auto& v : w) v = rng.uniform(-1, 1);
  }
  const core::LinearPolicy policy(std::move(weights));
  core::FeatureVector x = make_context(dim, rng);
  for (auto _ : state) {
    refill_context(x, rng);
    benchmark::DoNotOptimize(policy.choose(x));
  }
}
BENCHMARK(BM_LinearGreedyDecision)->Args({2, 3})->Args({9, 8})->Args({25, 26});

/// core::LinearScorer::argmax at K actions x D dims on each implementation
/// (arg 2: 0 scalar, 1 AVX2): where kAuto's action crossover comes from.
void BM_ScorerArgmax(benchmark::State& state) {
  const auto num_actions = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  const core::Lanes lanes =
      state.range(2) == 0 ? core::Lanes::kScalar : core::Lanes::kAvx2;
  if (lanes == core::Lanes::kAvx2 && !core::host_has_avx2()) {
    state.SkipWithError("host has no AVX2");
    return;
  }
  util::Rng rng(2);
  std::vector<double> rows(num_actions * (dim + 1));
  for (double& v : rows) v = rng.uniform(-1, 1);
  const core::LinearScorer scorer(rows, num_actions, lanes);
  const ContextRing contexts(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scorer.argmax(contexts.next()));
  }
}
BENCHMARK(BM_ScorerArgmax)
    ->ArgsProduct({{2, 3, 4, 9, 16, 25}, {4, 8, 26}, {0, 1}});

/// A ridge model's greedy choice at ope-replay's K = 9, D = 8: one scorer
/// pass (GreedyPolicy -> RewardModel::greedy).
void BM_RidgeGreedyChoose(benchmark::State& state) {
  const auto num_actions = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  util::Rng rng(3);
  auto model = std::make_shared<core::RidgeRewardModel>(num_actions, dim, 1.0);
  for (int i = 0; i < 200; ++i) {
    model->observe(make_context(dim, rng),
                   static_cast<core::ActionId>(rng.uniform_index(num_actions)),
                   rng.uniform());
  }
  model->fit();
  const core::GreedyPolicy policy(model);
  core::FeatureVector x = make_context(dim, rng);
  for (auto _ : state) {
    refill_context(x, rng);
    benchmark::DoNotOptimize(policy.choose(x));
  }
}
BENCHMARK(BM_RidgeGreedyChoose)->Args({9, 8});

/// RidgeRewardModel::observe, the online trainer's per-record fold, at
/// serve-live's K = D = 16 and loop-narrow's K = 3, D = 4.
void BM_RidgeObserve(benchmark::State& state) {
  const auto num_actions = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  util::Rng rng(8);
  core::RidgeRewardModel model(num_actions, dim, 1.0);
  const ContextRing contexts(dim, rng);
  core::ActionId a = 0;
  for (auto _ : state) {
    model.observe(contexts.next(), a, 0.5, 1.5);
    a = a + 1 == num_actions ? 0 : a + 1;
  }
  benchmark::DoNotOptimize(model.observation_weight(0));
}
BENCHMARK(BM_RidgeObserve)->Args({16, 16})->Args({3, 4});

/// core::fold_weighted_sample at D dims on each implementation (arg 1: 0
/// scalar, 1 AVX2): where kAuto's dim crossover comes from.
void BM_FoldWeightedSample(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const core::Lanes lanes =
      state.range(1) == 0 ? core::Lanes::kScalar : core::Lanes::kAvx2;
  if (lanes == core::Lanes::kAvx2 && !core::host_has_avx2()) {
    state.SkipWithError("host has no AVX2");
    return;
  }
  util::Rng rng(9);
  const std::size_t n = dim + 1;
  std::vector<double> m(n * n), b(n);
  const ContextRing contexts(dim, rng);
  for (auto _ : state) {
    core::fold_weighted_sample(m, b, contexts.next(), 0.5, 1.5, lanes);
    benchmark::DoNotOptimize(m.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_FoldWeightedSample)->ArgsProduct({{4, 6, 8, 12, 16}, {0, 1}});

void BM_ServeDecideLogged(benchmark::State& state) {
  // The full service hot path: hazard acquire, eps-greedy decide, staged
  // tuple push — what the throughput gate runs multi-threaded.
  const auto num_actions = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  util::Rng wrng(3);
  std::vector<std::vector<double>> weights(num_actions,
                                           std::vector<double>(dim + 1));
  for (auto& w : weights) {
    for (auto& v : w) v = wrng.uniform(-1, 1);
  }
  serve::DecisionService service(
      {.num_actions = num_actions, .dim = dim, .log_capacity = 1 << 12},
      serve::PolicySnapshot::from_weights(1, weights, 0.1));
  serve::Decider& decider = service.add_decider();
  double ctx[serve::kMaxContextDim] = {};
  util::Rng crng(4);
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < dim; ++i) ctx[i] = crng.uniform();
    const serve::AllocGate gate;
    benchmark::DoNotOptimize(
        decider.decide_logged(std::span<const double>(ctx, dim), 0.5));
    allocs += gate.delta();
    if ((decider.decided() & 0xFFF) == 0) {
      service.drain([](const serve::DecisionRecord&) {});
    }
  }
  state.counters["decide_path_allocs"] =
      static_cast<double>(allocs);
}
BENCHMARK(BM_ServeDecideLogged)->Args({3, 4})->Args({9, 8});

void BM_RidgeModelPredict(benchmark::State& state) {
  util::Rng rng(3);
  core::RidgeRewardModel model(9, 8, 1.0);
  for (int i = 0; i < 200; ++i) {
    model.observe(make_context(8, rng),
                  static_cast<core::ActionId>(rng.uniform_index(9)),
                  rng.uniform());
  }
  model.fit();
  core::FeatureVector x = make_context(8, rng);
  for (auto _ : state) {
    refill_context(x, rng);
    benchmark::DoNotOptimize(model.predict(x, 3));
  }
}
BENCHMARK(BM_RidgeModelPredict);

/// The per-point estimator benches' inputs, at ope-replay's shape (K=9,
/// D=8): 4096 uniformly logged points, a ridge model fit on them, and the
/// candidates scored offline — constant (arg 0), ridge-greedy (arg 1) and
/// eps-greedy(0.1) over it (arg 2).
struct PerPointFixture {
  core::ExplorationDataset data{9, {0.0, 1.0}};
  std::shared_ptr<const core::RidgeRewardModel> ridge;
  std::vector<core::PolicyPtr> candidates;

  PerPointFixture() {
    util::Rng rng(4);
    for (int i = 0; i < 4096; ++i) {
      data.add({make_context(8, rng),
                static_cast<core::ActionId>(rng.uniform_index(9)),
                rng.uniform(), 1.0 / 9});
    }
    ridge = std::make_shared<const core::RidgeRewardModel>(
        core::fit_ridge(data, 1.0, /*importance_weighted=*/true));
    const auto greedy = std::make_shared<const core::GreedyPolicy>(ridge);
    candidates = {std::make_shared<const core::ConstantPolicy>(9, 2), greedy,
                  std::make_shared<const core::EpsilonGreedyPolicy>(greedy,
                                                                    0.1)};
  }
};

const PerPointFixture& per_point_fixture() {
  static const PerPointFixture fixture;
  return fixture;
}

/// Marginal cost of one exploration point in an offline evaluation, and the
/// heap allocations it makes (allocs_per_row: per-call buffers spread over
/// the rows; 1 or more means the row loop allocates).
void run_per_point(benchmark::State& state,
                   const core::OffPolicyEstimator& estimator) {
  const PerPointFixture& f = per_point_fixture();
  const core::Policy& policy = *f.candidates.at(
      static_cast<std::size_t>(state.range(0)));
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const serve::AllocGate gate;
    benchmark::DoNotOptimize(estimator.evaluate(f.data, policy).value);
    allocs += gate.delta();
  }
  const double rows = static_cast<double>(state.iterations()) *
                      static_cast<double>(f.data.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(rows));
  state.counters["allocs_per_row"] = static_cast<double>(allocs) / rows;
  state.SetLabel(policy.name());
}

void BM_IpsPerPoint(benchmark::State& state) {
  run_per_point(state, core::IpsEstimator{});
}
BENCHMARK(BM_IpsPerPoint)->DenseRange(0, 2);

void BM_DrPerPoint(benchmark::State& state) {
  run_per_point(state,
                core::DoublyRobustEstimator(per_point_fixture().ridge));
}
BENCHMARK(BM_DrPerPoint)->DenseRange(0, 2);

void BM_CacheLookupHit(benchmark::State& state) {
  cache::CacheStore store(1 << 20, 5);
  cache::RandomEvictor evictor;
  util::Rng rng(5);
  for (cache::Key k = 0; k < 500; ++k) {
    store.insert(k, 1024, 0.0, evictor, rng);
  }
  double now = 1.0;
  cache::Key key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.lookup(key, now));
    key = (key + 1) % 500;
    now += 1e-6;
  }
}
BENCHMARK(BM_CacheLookupHit);

void BM_CacheInsertWithEviction(benchmark::State& state) {
  cache::CacheStore store(512 * 1024, 5);
  cache::RandomEvictor evictor;
  util::Rng rng(6);
  double now = 0.0;
  cache::Key key = 0;
  for (auto _ : state) {
    store.insert(key, 1024, now, evictor, rng);
    ++key;
    now += 1e-6;
  }
}
BENCHMARK(BM_CacheInsertWithEviction);

void BM_CbEvictorChoice(benchmark::State& state) {
  util::Rng rng(7);
  auto model = std::make_shared<core::RidgeRewardModel>(1, 4, 1.0);
  for (int i = 0; i < 100; ++i) {
    model->observe(make_context(4, rng), 0, rng.uniform());
  }
  model->fit();
  cache::CbEvictor evictor(model);
  std::vector<cache::ItemMeta> candidates(5);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    candidates[i].key = i;
    candidates[i].size_bytes = 1024 * (i + 1);
    candidates[i].access_count = i + 1;
    candidates[i].last_access = static_cast<double>(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(evictor.choose(candidates, 10.0, rng));
  }
}
BENCHMARK(BM_CbEvictorChoice);

void BM_EventQueuePushPop(benchmark::State& state) {
  sim::EventQueue queue;
  util::Rng rng(8);
  // Keep a steady queue of 1024 events.
  for (int i = 0; i < 1024; ++i) {
    queue.push(rng.uniform(), [] {});
  }
  for (auto _ : state) {
    queue.push(queue.next_time() + rng.uniform(), [] {});
    benchmark::DoNotOptimize(queue.pop());
  }
}
BENCHMARK(BM_EventQueuePushPop);

void BM_LogRecordRoundtrip(benchmark::State& state) {
  logs::Record rec;
  rec.time = 123.456;
  rec.event = "route";
  rec.set("conns0", std::int64_t{7});
  rec.set("conns1", std::int64_t{12});
  rec.set("server", std::int64_t{1});
  rec.set("latency", 0.3725);
  for (auto _ : state) {
    benchmark::DoNotOptimize(logs::parse(logs::serialize(rec)));
  }
}
BENCHMARK(BM_LogRecordRoundtrip);

// ---- serve throughput gate -------------------------------------------------

struct WorkerResult {
  std::uint64_t decisions = 0;
  std::uint64_t allocs = 0;
  std::vector<double> latency_us;  // sampled, preallocated before measuring
};

/// The p-quantile of an ascending vector (nearest rank at or below).
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[static_cast<std::size_t>(p * (sorted.size() - 1))];
}

int run_serve_throughput(const util::Flags& flags) {
  const auto threads =
      static_cast<std::size_t>(flags.get_int("serve-threads", 2));
  const double seconds = flags.get_double("serve-seconds", 2.0);
  const auto swap_ms = flags.get_int("swap-ms", 5);
  const auto num_actions = static_cast<std::size_t>(flags.get_int("actions", 3));
  const auto dim = static_cast<std::size_t>(flags.get_int("dim", 4));
  const double epsilon = flags.get_double("epsilon", 0.1);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const double min_mops = flags.get_double("min-mops", 1.0);
  const double max_p99_us = flags.get_double("max-p99-us", 200.0);
  const std::string json_out = flags.get_string("json-out", "");

  util::Rng wrng(seed);
  std::vector<std::vector<double>> weights(num_actions,
                                           std::vector<double>(dim + 1));
  for (auto& w : weights) {
    for (auto& v : w) v = wrng.uniform(-1, 1);
  }
  serve::DecisionService service(
      {.num_actions = num_actions,
       .dim = dim,
       .log_capacity = 1 << 16,
       .seed = seed},
      serve::PolicySnapshot::from_weights(1, weights, epsilon));

  std::vector<serve::Decider*> deciders;
  deciders.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    deciders.push_back(&service.add_decider());
  }

  // phase: 0 = warmup, 1 = measured, 2 = stop.
  std::atomic<int> phase{0};
  std::vector<WorkerResult> results(threads);
  // Sample every 64th decision's latency, bounded so sampling never
  // reallocates mid-measurement.
  const std::size_t max_samples = 1 << 20;

  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      serve::Decider& decider = *deciders[t];
      WorkerResult& out = results[t];
      out.latency_us.reserve(max_samples);
      util::Rng crng(util::derive_stream_seed(seed ^ 0x5eedULL, t));
      double ctx[serve::kMaxContextDim] = {};
      const std::span<const double> span(ctx, dim);
      // Warmup: touch the whole path (including ring wraparound) before
      // the allocation gate arms.
      while (phase.load(std::memory_order_acquire) == 0) {
        for (std::size_t i = 0; i < dim; ++i) ctx[i] = crng.uniform();
        decider.decide_logged(span, 0.5);
      }
      const serve::AllocGate gate;
      std::uint64_t n = 0;
      while (phase.load(std::memory_order_acquire) == 1) {
        for (std::size_t i = 0; i < dim; ++i) ctx[i] = crng.uniform();
        if ((n & 63) == 0 && out.latency_us.size() < max_samples) {
          const auto t0 = std::chrono::steady_clock::now();
          decider.decide_logged(span, 0.5);
          const auto t1 = std::chrono::steady_clock::now();
          out.latency_us.push_back(
              std::chrono::duration<double, std::micro>(t1 - t0).count());
        } else {
          decider.decide_logged(span, 0.5);
        }
        ++n;
      }
      out.allocs = gate.delta();
      out.decisions = n;
    });
  }

  // Publisher: swap a fresh snapshot every swap_ms while measuring.
  std::thread publisher([&] {
    util::Rng prng(seed + 17);
    std::uint64_t next_id = 2;
    while (phase.load(std::memory_order_acquire) != 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(swap_ms));
      auto w = weights;
      for (auto& row : w) {
        for (auto& v : row) v += prng.uniform(-0.01, 0.01);
      }
      service.publish(serve::PolicySnapshot::from_weights(next_id++, w,
                                                          epsilon));
    }
  });

  // Drainer: empties the rings every millisecond. A decider that fills its
  // ring between two drains drops records (decide() never blocks), so the
  // drop count, also reported as a share of decisions, is not always zero.
  std::atomic<std::uint64_t> drained_total{0};
  std::thread drainer([&] {
    while (phase.load(std::memory_order_acquire) != 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      const auto stats = service.drain([](const serve::DecisionRecord&) {});
      drained_total.fetch_add(stats.drained, std::memory_order_relaxed);
    }
    const auto stats = service.drain([](const serve::DecisionRecord&) {});
    drained_total.fetch_add(stats.drained, std::memory_order_relaxed);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(200));  // warmup
  const auto start = std::chrono::steady_clock::now();
  phase.store(1, std::memory_order_release);
  std::this_thread::sleep_for(
      std::chrono::duration<double>(seconds));
  phase.store(2, std::memory_order_release);
  const auto stop = std::chrono::steady_clock::now();
  for (auto& w : workers) w.join();
  publisher.join();
  drainer.join();
  service.reclaim_all();

  const double wall =
      std::chrono::duration<double>(stop - start).count();
  std::uint64_t decisions = 0;
  std::uint64_t allocs = 0;
  std::vector<double> latencies;
  for (auto& r : results) {
    decisions += r.decisions;
    allocs += r.allocs;
    latencies.insert(latencies.end(), r.latency_us.begin(),
                     r.latency_us.end());
  }
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const auto cores =
      static_cast<double>(std::min<std::size_t>(threads, hw));
  const double mops_per_core =
      static_cast<double>(decisions) / wall / 1e6 / cores;
  std::sort(latencies.begin(), latencies.end());
  const double p50 = percentile(latencies, 0.50);
  const double p99 = percentile(latencies, 0.99);
  const double p999 = percentile(latencies, 0.999);
  const double mx = latencies.empty() ? 0.0 : latencies.back();
  const std::uint64_t dropped = service.dropped_total();
  const double dropped_frac =
      decisions == 0 ? 0.0
                     : static_cast<double>(dropped) /
                           static_cast<double>(decisions);

  // ---- restart cost: persist the last snapshot, time a warm restart -----
  std::string snapdir = flags.get_string("snapshot-dir", "");
  const bool temp_snapdir = snapdir.empty();
  if (temp_snapdir) {
    snapdir = (std::filesystem::temp_directory_path() /
               ("harvest_serve_restart_" + std::to_string(seed)))
                  .string();
    std::error_code ec;
    std::filesystem::remove_all(snapdir, ec);
  }
  double save_us = 0.0;
  double restart_us = 0.0;
  bool restart_resumed = false;
  std::uint64_t restart_id = 0;
  {
    serve::SnapshotStore store({.dir = snapdir});
    serve::Decider& probe = service.add_decider();
    {
      const auto t0 = std::chrono::steady_clock::now();
      const serve::SnapshotRef ref = probe.snapshot();
      store.save(*ref);
      const auto t1 = std::chrono::steady_clock::now();
      save_us = std::chrono::duration<double, std::micro>(t1 - t0).count();
    }
    const auto t0 = std::chrono::steady_clock::now();
    serve::ResumeResult resumed = serve::resume_service(
        {.num_actions = num_actions,
         .dim = dim,
         .log_capacity = 1 << 16,
         .seed = seed},
        store);
    const auto t1 = std::chrono::steady_clock::now();
    restart_us = std::chrono::duration<double, std::micro>(t1 - t0).count();
    restart_resumed =
        resumed.resumed && resumed.snapshot_id == service.current_id();
    restart_id = resumed.snapshot_id;
  }
  if (temp_snapdir) {
    std::error_code ec;
    std::filesystem::remove_all(snapdir, ec);
  }

  std::printf(
      "serve-restart: snapshot_save=%.1fus warm_restart=%.1fus "
      "resumed_id=%llu resumed=%s\n",
      save_us, restart_us, static_cast<unsigned long long>(restart_id),
      restart_resumed ? "yes" : "NO");
  std::printf(
      "serve-throughput: threads=%zu wall=%.3fs decisions=%llu "
      "mops/core=%.3f p50=%.3fus p99=%.3fus p999=%.3fus max=%.3fus "
      "allocs=%llu swaps=%llu reclaimed=%llu dropped=%llu (%.2e of "
      "decisions) drained=%llu\n",
      threads, wall, static_cast<unsigned long long>(decisions),
      mops_per_core, p50, p99, p999, mx,
      static_cast<unsigned long long>(allocs),
      static_cast<unsigned long long>(service.swaps()),
      static_cast<unsigned long long>(service.reclaimed()),
      static_cast<unsigned long long>(dropped), dropped_frac,
      static_cast<unsigned long long>(
          drained_total.load(std::memory_order_relaxed)));

  if (!json_out.empty()) {
    std::ofstream out(json_out);
    out << "{\n"
        << "  \"threads\": " << threads << ",\n"
        << "  \"seconds\": " << wall << ",\n"
        << "  \"decisions\": " << decisions << ",\n"
        << "  \"mops_per_core\": " << mops_per_core << ",\n"
        << "  \"p50_us\": " << p50 << ",\n"
        << "  \"p99_us\": " << p99 << ",\n"
        << "  \"p999_us\": " << p999 << ",\n"
        << "  \"max_us\": " << mx << ",\n"
        << "  \"decide_path_allocs\": " << allocs << ",\n"
        << "  \"dropped\": " << dropped << ",\n"
        << "  \"dropped_frac\": " << dropped_frac << ",\n"
        << "  \"swaps\": " << service.swaps() << ",\n"
        << "  \"reclaimed\": " << service.reclaimed() << ",\n"
        << "  \"snapshot_save_us\": " << save_us << ",\n"
        << "  \"warm_restart_us\": " << restart_us << "\n"
        << "}\n";
  }

  int failures = 0;
  if (mops_per_core < min_mops) {
    std::fprintf(stderr, "GATE FAIL: %.3f Mdecisions/s/core < %.3f\n",
                 mops_per_core, min_mops);
    ++failures;
  }
  if (p99 > max_p99_us) {
    std::fprintf(stderr, "GATE FAIL: p99 %.3fus > %.3fus\n", p99, max_p99_us);
    ++failures;
  }
  if (allocs != 0) {
    std::fprintf(stderr,
                 "GATE FAIL: %llu allocations on the decide path (want 0)\n",
                 static_cast<unsigned long long>(allocs));
    ++failures;
  }
  if (!restart_resumed) {
    std::fprintf(stderr,
                 "GATE FAIL: warm restart did not resume the published "
                 "snapshot (got id %llu)\n",
                 static_cast<unsigned long long>(restart_id));
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  if (flags.has("serve-throughput")) {
    return run_serve_throughput(flags);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
