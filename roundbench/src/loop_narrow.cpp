// loop-narrow: the tools/harvest_serve closed loop at K=3 actions, D=4
// features, 64k decisions per round from 2 saturating decider threads. Each
// round is serve -> DecisionService::drain into store::DatasetWriter ->
// Dataset::open + logs::scavenge -> SnapshotTrainer::train_on inside
// publish_with -> SnapshotStore::save_bytes. Round 0 serves the uniform
// snapshot; every later round serves the snapshot retrained from the
// previous round's own logs.
//
// A round is 64k decisions, not the 1M of tools/harvest_serve's default, so
// its working set (two 4 MB rings, the HLOG part, the scavenged rows) stays
// in cache. 1M-decision rounds streamed ~0.5 GB through memory each, and on
// a shared host their times followed the neighbours' memory traffic: the
// median round moved 24-36% between runs of the same code.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ledger.h"
#include "logs/scavenger.h"
#include "obs/recorder.h"
#include "par/thread_pool.h"
#include "serve/persist.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "serve/trainer.h"
#include "store/dataset.h"
#include "workloads.h"

namespace roundbench {

namespace {

namespace fs = std::filesystem;
namespace serve = harvest::serve;
namespace store = harvest::store;

constexpr std::size_t kActions = 3;
constexpr std::size_t kDim = 4;
constexpr std::size_t kDecisions = 64'000;
constexpr std::size_t kDeciders = 2;
constexpr std::size_t kPerDecider = kDecisions / kDeciders;

/// What one round measured.
struct Round {
  std::uint64_t served_id = 0;
  std::uint64_t published_id = 0;
  double mean_reward = 0;
  std::uint64_t round_ns = 0;     // serve start -> persisted
  std::uint64_t feedback_ns = 0;  // last decision -> persisted
  std::uint64_t serve_ns = 0;
  std::uint64_t decisions = 0;
  double decide_mean_ns = 0;  // of this round's sampled decide() timings
  double decide_p90_ns = 0;
};

/// The loop's long-lived state: built once per set-up repetition.
struct Loop {
  std::unique_ptr<serve::DecisionService> service;
  std::vector<serve::Decider*> deciders;
  std::unique_ptr<serve::SnapshotTrainer> trainer;
  std::unique_ptr<serve::SnapshotStore> snapshots;
};

Loop set_up(const fs::path& snapshot_dir) {
  std::size_t ring = 2;
  while (ring < kPerDecider + 1) ring <<= 1;
  Loop loop;
  loop.service = std::make_unique<serve::DecisionService>(
      serve::DecisionService::Options{
          .num_actions = kActions, .dim = kDim, .log_capacity = ring},
      serve::PolicySnapshot::uniform(1, kActions, kDim));
  for (std::size_t t = 0; t < kDeciders; ++t) {
    loop.deciders.push_back(&loop.service->add_decider());
  }
  serve::SnapshotTrainer::Options trainer;
  trainer.epsilon = 0.2;
  trainer.min_rows = 32;
  trainer.reward_range = {0, 1};
  loop.trainer =
      std::make_unique<serve::SnapshotTrainer>(*loop.service, trainer);
  loop.snapshots = std::make_unique<serve::SnapshotStore>(
      serve::SnapshotStore::Options{.dir = snapshot_dir});
  return loop;
}

}  // namespace

Result run_loop_narrow(const Options& opt) {
  harvest::obs::Recorder& rec = harvest::obs::Recorder::global();
  rec.set_enabled(false);
  // Two deciders + this thread + one pool worker = four threads.
  harvest::par::set_default_threads(2);

  const Environment env(kActions, kDim);
  const store::Schema schema = make_schema(kActions, kDim);
  const harvest::logs::ScavengeSpec spec = make_spec(schema);
  const fs::path round_dir = fs::path(opt.workdir) / "round";
  const fs::path snapshot_dir = fs::path(opt.workdir) / "snapshots";

  // ---- set-up: service, rings, trainer and snapshot store, repeated ------
  std::vector<double> setup_s;
  Loop loop;
  for (int i = 0; i < kSetupRepeats; ++i) {
    loop = Loop{};
    fs::remove_all(snapshot_dir);
    const std::uint64_t t0 = now_ns();
    loop = set_up(snapshot_dir);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  serve::DecisionService& service = *loop.service;

  Result result;
  // Sampled decide() timings: per decider within a round, pooled over the
  // measured rounds for the per-layer figures.
  std::vector<LatencyHistogram> samples(kDeciders);
  LatencyHistogram decide_hist;
  std::vector<serve::DecisionRecord> buffer;  // traced drain target
  double retired_max = 0;
  double bytes_per_row = 0;
  std::uint64_t prev_id = 0;

  // One round: the blocking steps in order, each under its span.
  const auto run_round = [&](std::uint64_t r, bool traced) {
    Round out;
    out.served_id = service.current_id();
    const std::uint64_t decided_before = service.decided_total();
    const std::uint64_t t0 = now_ns();
    std::vector<double> sums(kDeciders, 0.0);
    std::vector<std::uint64_t> wrong_snapshot(kDeciders, 0);
    {
      const auto s = span("serve.decide", r, kDecisions);
      std::vector<std::thread> workers;
      for (std::size_t t = 0; t < kDeciders; ++t) {
        workers.emplace_back([&, t] {
          ContextStream contexts(opt.seed, context_stream(r, t), kDim);
          harvest::util::Rng noise(
              harvest::util::derive_stream_seed(opt.seed, noise_stream(r, t)));
          serve::Decider& decider = *loop.deciders[t];
          LatencyHistogram& timed = samples[t];
          const std::uint64_t overhead = timer_overhead_ns();
          // Thread-local tallies, published once: no shared cache lines on
          // the decide path.
          double sum = 0;
          std::uint64_t wrong = 0;
          double x[kDim];
          for (std::size_t i = 0; i < kPerDecider; ++i) {
            contexts.next(x);
            serve::Decision d;
            if (i % kSampleStride == 0) {
              const std::uint64_t a = now_ns();
              d = decider.decide(x);
              const std::uint64_t raw = now_ns() - a;
              const std::uint64_t took = raw > overhead ? raw - overhead : 0;
              timed.add(took);
            } else {
              d = decider.decide(x);
            }
            if (d.snapshot_id != out.served_id) ++wrong;
            const double reward = env.reward(x, d.action, noise);
            decider.log_reward(reward);
            sum += reward;
          }
          sums[t] = sum;
          wrong_snapshot[t] = wrong;
        });
      }
      for (auto& w : workers) w.join();
    }
    const std::uint64_t t1 = now_ns();
    out.decisions = service.decided_total() - decided_before;
    for (double s : sums) out.mean_reward += s;
    out.mean_reward /= static_cast<double>(kDecisions);
    for (std::uint64_t n : wrong_snapshot) {
      result.check(n == 0, "round " + std::to_string(r) +
                               ": a decision came from a snapshot other "
                               "than the published one");
    }

    // ---- log the round to HLOG --------------------------------------------
    serve::ServeDrainStats drained;
    const bool drop_one = opt.break_check == "drop-record" && r == 1;
    if (traced) {
      // Drain into a buffer first so serve.drain and store.write get their
      // own spans without a clock read per row.
      buffer.clear();
      {
        const auto s = span("serve.drain", r, out.decisions);
        drained = service.drain(
            [&](const serve::DecisionRecord& rec) { buffer.push_back(rec); });
      }
      const auto s = span("store.write", r, buffer.size());
      store::DatasetWriter writer(round_dir.string(), schema);
      for (std::size_t i = drop_one ? 1 : 0; i < buffer.size(); ++i) {
        const serve::DecisionRecord& rec = buffer[i];
        writer.add(rec.time, std::span<const double>(rec.context, rec.dim),
                   rec.action, rec.reward, rec.propensity);
      }
      writer.finish();
    } else {
      store::DatasetWriter writer(round_dir.string(), schema);
      bool skip = drop_one;
      drained = service.drain([&](const serve::DecisionRecord& rec) {
        if (skip) {
          skip = false;
          return;
        }
        writer.add(rec.time, std::span<const double>(rec.context, rec.dim),
                   rec.action, rec.reward, rec.propensity);
      });
      writer.finish();
    }

    // ---- scavenge the round's own logs ------------------------------------
    std::unique_ptr<const store::Dataset> dataset;
    {
      const auto s = span("store.open", r);
      dataset = std::make_unique<const store::Dataset>(
          store::Dataset::open(round_dir.string()));
    }
    harvest::logs::ScavengeResult harvested = [&] {
      const auto s = span("logs.scavenge", r, dataset->rows());
      return harvest::logs::scavenge(*dataset, spec);
    }();

    // ---- retrain, publish, persist ----------------------------------------
    std::string bytes;
    {
      const auto s = span("serve.publish", r, harvested.data.size());
      out.published_id = service.publish_with([&](std::uint64_t id) {
        const auto train = span("serve.train", r, harvested.data.size());
        auto snapshot = loop.trainer->train_on(harvested.data, id);
        bytes = snapshot->serialize();
        return snapshot;
      });
    }
    {
      const auto s = span("serve.persist", r, bytes.size());
      loop.snapshots->save_bytes(out.published_id, bytes);
    }
    {
      const auto s = span("serve.reclaim", r);
      service.try_reclaim();
    }
    const std::uint64_t t2 = now_ns();
    record_span(kRoundSpan, t0, t2, r, out.served_id);
    out.serve_ns = t1 - t0;
    out.round_ns = t2 - t0;
    out.feedback_ns = t2 - t1;

    // ---- output checks and tallies (off the clock) ------------------------
    LatencyHistogram round_hist;
    for (const LatencyHistogram& h : samples) round_hist.merge(h);
    samples.assign(kDeciders, LatencyHistogram{});
    decide_hist.merge(round_hist);
    out.decide_mean_ns = round_hist.trimmed_mean(kDecideMeanShare);
    out.decide_p90_ns = round_hist.interpolated_percentile(0.90);
    const std::string at = "round " + std::to_string(r) + ": ";
    result.check(drained.drained == out.decisions,
                 at + "drained " + std::to_string(drained.drained) +
                     " != decided " + std::to_string(out.decisions));
    result.check(drained.dropped_total == 0, at + "ring dropped records");
    result.check(drained.orphaned_rewards == 0, at + "orphaned rewards");
    result.check(harvested.data.size() == drained.drained,
                 at + "scavenged " + std::to_string(harvested.data.size()) +
                     " rows != drained " + std::to_string(drained.drained));
    result.check(out.published_id > prev_id, at + "snapshot id not increasing");
    prev_id = out.published_id;
    result.attempted += out.decisions;
    result.failed += drained.dropped_total + drained.orphaned_rewards +
                     harvested.total_dropped() +
                     (drained.drained - std::min<std::uint64_t>(
                                            drained.drained,
                                            harvested.data.size()));
    retired_max = std::max(retired_max,
                           static_cast<double>(service.retired_count()));
    if (traced) {
      bytes_per_row = static_cast<double>(dataset->file_bytes()) /
                      static_cast<double>(
                          std::max<std::uint64_t>(1, dataset->rows()));
    }
    dataset.reset();
    fs::remove_all(round_dir);
    return out;
  };

  const auto reset_samples = [&] { decide_hist = LatencyHistogram{}; };
  // Round 0 serves the uniform snapshot: the baseline reward_final must beat.
  const Round first = run_round(0, false);
  reset_samples();

  // ---- measured rounds ---------------------------------------------------
  std::vector<Round> untraced, traced;
  const std::uint64_t start = now_ns();
  const auto window_ns = static_cast<std::uint64_t>(opt.seconds * 1e9);
  const std::uint64_t half = opt.traced ? start + window_ns / 2 : start + window_ns;
  std::uint64_t since = 0;
  std::uint64_t r = 1;
  // At least one round per half, however slow the host.
  do {
    untraced.push_back(run_round(r++, false));
  } while (now_ns() < half);
  double scanned_before = 0;
  if (opt.traced) {
    reset_samples();
    scanned_before = registry_counter("store_blocks_scanned_total");
    since = now_ns();
    rec.set_enabled(true);
    do {
      traced.push_back(run_round(r++, true));
    } while (now_ns() < start + window_ns);
    rec.set_enabled(false);
  }
  const std::vector<Round>& measured = opt.traced ? traced : untraced;
  const double reward_final = measured.back().mean_reward;
  result.check(reward_final > first.mean_reward,
               "reward_final " + std::to_string(reward_final) +
                   " does not beat round 0's " +
                   std::to_string(first.mean_reward));
  service.reclaim_all();

  const auto collect = [](const std::vector<Round>& rounds, auto field) {
    std::vector<double> v;
    for (const Round& round : rounds) v.push_back(field(round));
    return v;
  };
  const auto round_ms = [](const Round& x) { return ms(x.round_ns); };

  if (!opt.traced) {
    EndToEnd e2e;
    e2e.setup_s = median(setup_s);
    e2e.round_ms = median(collect(measured, round_ms));
    e2e.feedback_ms = median(
        collect(measured, [](const Round& x) { return ms(x.feedback_ns); }));
    e2e.serve_mdps = median(collect(measured, [](const Round& x) {
      return static_cast<double>(x.decisions) * 1e3 /
             static_cast<double>(x.serve_ns);
    }));
    e2e.decide_mean_ns = median(
        collect(measured, [](const Round& x) { return x.decide_mean_ns; }));
    e2e.decide_p90_ns = median(
        collect(measured, [](const Round& x) { return x.decide_p90_ns; }));
    e2e.reward_final = reward_final;
    std::printf("loop-narrow: %zu measured rounds, %llu decide samples\n",
                measured.size(),
                static_cast<unsigned long long>(decide_hist.count()));
    add_end_to_end(result, e2e);
    return result;
  }

  const LedgerReport report = analyze(rec.snapshot_events(), since);
  PerLayer l;
  l.decide_ns = decide_hist.trimmed_mean(1.0);
  const SpanStats phase = report.at("serve.decide");
  l.decide_phase_ns = phase.rows == 0 ? 0
                                      : static_cast<double>(phase.total_ns) *
                                            kDeciders /
                                            static_cast<double>(phase.rows);
  l.decide_p99_ns = static_cast<double>(decide_hist.percentile(0.99));
  l.decide_p999_ns = static_cast<double>(decide_hist.percentile(0.999));
  l.decide_max_ns = static_cast<double>(decide_hist.max());
  l.drain_ns_per_row = report.at("serve.drain").self_ns_per_row();
  l.train_ms = report.at("serve.train").self_ms_per_call();
  l.train_ns_per_row = report.at("serve.train").self_ns_per_row();
  l.publish_us = report.at("serve.publish").self_ms_per_call() * 1e3;
  l.persist_us = report.at("serve.persist").self_ms_per_call() * 1e3;
  l.swaps = static_cast<double>(service.swaps());
  l.reclaimed = static_cast<double>(service.reclaimed());
  l.retired_max = retired_max;
  l.write_ns_per_row = report.at("store.write").self_ns_per_row();
  l.write_bytes_per_row = bytes_per_row;
  l.open_ms = report.at("store.open").self_ms_per_call();
  const SpanStats scavenge = report.at("logs.scavenge");
  l.scavenge_ns_per_row = scavenge.self_ns_per_row();
  l.scavenge_rows = scavenge.calls == 0 ? 0
                                        : static_cast<double>(scavenge.rows) /
                                              static_cast<double>(scavenge.calls);
  l.blocks_scanned = (registry_counter("store_blocks_scanned_total") -
                      scanned_before) /
                     static_cast<double>(traced.size());
  l.trace_overhead_frac =
      overhead_frac(collect(traced, round_ms), collect(untraced, round_ms));
  finish_trace(result, report, opt, "loop-narrow per-layer ledger");
  add_per_layer(result, l, report);
  return result;
}

}  // namespace roundbench
