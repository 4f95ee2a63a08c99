// serve-live: the online shape at K=16 actions, D=16 features, with no HLOG.
// Two decider threads run an open loop at a fixed offered rate (bursts of
// 250 requests every millisecond, 250k decisions/s each). This thread is the
// trainer: on a fixed period it calls SnapshotTrainer::collect() and
// train_and_publish() over a sliding window of rows, so drain, retrain and
// snapshot swap/reclaim run concurrently with deciding. Calling them from
// here rather than through SnapshotTrainer::start() lets each call be timed.
//
// The gated decide figures are decide() call times under that concurrency.
// Every decision is also timed from its due time; that latency, dominated by
// queueing within a burst and by host stalls, feeds the per-layer tail
// diagnostics only, because on a shared VM it varied too much run to run to
// hold a bound.
#include <sys/prctl.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ledger.h"
#include "obs/recorder.h"
#include "par/thread_pool.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "serve/trainer.h"
#include "workloads.h"

namespace roundbench {

namespace {

namespace serve = harvest::serve;

constexpr std::size_t kActions = 16;
constexpr std::size_t kDim = 16;
constexpr std::size_t kDeciders = 2;
// Requests arrive in bursts of 250 every millisecond per decider (250k
// decisions/s each), so a decider sleeps between bursts instead of spinning.
// With evenly spaced arrivals at 1M/s the deciders spun on the clock, their
// p99 fell inside the host's stall regime (1-30 us, varying 10x run to run)
// and they slowed the trainer by a placement-dependent 20-30%.
constexpr std::uint64_t kBurst = 250;
constexpr std::uint64_t kBurstPeriodNs = 1'000'000;
/// Sleep until this long before a burst is due, then spin: wake-up jitter
/// on a VM is tens of microseconds.
constexpr std::uint64_t kWakeLeadNs = 150'000;
constexpr std::uint64_t kPeriodNs = 50'000'000;  // trainer round every 50 ms
constexpr std::uint64_t kWarmupNs = 1'500'000'000;
constexpr std::size_t kWindowRows = 50'000;
constexpr std::size_t kRing = 1 << 16;  // five trainer periods of one decider
constexpr std::size_t kSlowCapacity = 1 << 18;
constexpr std::uint64_t kFinalRewardNs = 1'000'000'000;
constexpr std::uint64_t kSliceNs = 1'000'000'000;
// A full slice holds 2 deciders x 250k decisions.
constexpr std::uint64_t kSliceMinSamples = 400'000;

/// The open-loop schedule's phase boundaries on the recorder clock.
struct Timeline {
  std::uint64_t start = 0;     // first decision due
  std::uint64_t measure = 0;   // end of warm-up
  std::uint64_t traced = 0;    // start of the traced half (== end if none)
  std::uint64_t end = 0;       // no decision due at or after this
};

/// Everything one decider measured; written by its own thread only.
struct Tally {
  Tally(const Timeline& tl, std::size_t num_slices)
      : slices(num_slices), pacer(tl.start, kBurstPeriodNs, kBurst) {}

  /// decide() call time (less the timer's cost), untraced, per second of
  /// due time.
  std::vector<LatencyHistogram> slices;
  Pacer pacer;
  LatencyHistogram untraced, traced;  // due -> decide() returned
  double call_ns = 0;                 // sum of the measured window's calls
  std::uint64_t calls = 0;
  std::uint64_t completed = 0;  // decisions due inside the window
  std::uint64_t first_done = 0, last_done = 0;
  double final_reward = 0;
  std::uint64_t final_n = 0;
  double uniform_reward = 0;  // served by the initial (uniform) snapshot
  std::uint64_t uniform_n = 0;
  std::vector<std::uint64_t> served_ids;
  /// Traced half: (due, done) of decisions slower than this decider's
  /// untraced p99, for tail attribution.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> slow;
  std::uint64_t slow_threshold = 0;
};

/// Spin-wait hint: lets a sibling hardware thread run while a decider waits
/// for its next due time.
inline void pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

void decide_open_loop(serve::Decider& decider, const Environment& env,
                      const Timeline& tl, std::uint64_t seed, std::size_t t,
                      bool traced_run, Tally& tally) {
  // Wake from sleep on time: the default 50 us timer slack would otherwise
  // land on every burst.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const std::uint64_t overhead = timer_overhead_ns();
  ContextStream contexts(seed, context_stream(0, t), kDim);
  harvest::util::Rng noise(
      harvest::util::derive_stream_seed(seed, noise_stream(0, t)));
  tally.slow.reserve(kSlowCapacity);
  std::uint64_t last_id = 0;
  bool in_traced_half = false;
  double x[kDim];
  contexts.next(x);
  for (;;) {
    const std::uint64_t next = tally.pacer.next_due();
    if (next >= tl.end) break;
    std::uint64_t now = now_ns();
    if (next > now + kWakeLeadNs) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(next - now - kWakeLeadNs));
      now = now_ns();
    }
    while (now < next) {
      pause();
      now = now_ns();
    }
    const std::uint64_t due = tally.pacer.issue(now);
    const serve::Decision d = decider.decide(x);
    const std::uint64_t done = now_ns();
    const double reward = env.reward(x, d.action, noise);
    decider.log_reward(reward);
    if (d.snapshot_id == 1) {
      tally.uniform_reward += reward;
      ++tally.uniform_n;
    }
    if (due >= tl.end - kFinalRewardNs && due >= tl.measure) {
      tally.final_reward += reward;
      ++tally.final_n;
    }
    if (d.snapshot_id != last_id) {
      tally.served_ids.push_back(d.snapshot_id);
      last_id = d.snapshot_id;
    }
    if (due >= tl.measure) {
      const std::uint64_t latency = done - due;
      const std::uint64_t raw = done - now;
      const std::uint64_t call = raw > overhead ? raw - overhead : 0;
      tally.call_ns += static_cast<double>(call);
      ++tally.calls;
      if (tally.completed == 0) tally.first_done = done;
      tally.last_done = done;
      ++tally.completed;
      if (due < tl.traced) {
        tally.untraced.add(latency);
        tally.slices[(due - tl.measure) / kSliceNs].add(call);
      } else {
        if (traced_run && !in_traced_half) {
          in_traced_half = true;
          tally.slow_threshold = tally.untraced.percentile(0.99);
        }
        tally.traced.add(latency);
        if (traced_run && latency > tally.slow_threshold &&
            tally.slow.size() < kSlowCapacity) {
          tally.slow.emplace_back(due, done);
        }
      }
    }
    contexts.next(x);
  }
}

}  // namespace

Result run_serve_live(const Options& opt) {
  harvest::obs::Recorder& rec = harvest::obs::Recorder::global();
  rec.set_enabled(false);
  // Two deciders + this trainer thread; the retrain runs without a pool.
  harvest::par::set_default_threads(1);

  const Environment env(kActions, kDim);

  // ---- set-up: service, rings and trainer, median of kSetupRepeats -------
  std::vector<double> setup_s;
  std::unique_ptr<serve::SnapshotTrainer> trainer;
  std::unique_ptr<serve::DecisionService> service;
  std::vector<serve::Decider*> deciders;
  for (int i = 0; i < kSetupRepeats; ++i) {
    trainer.reset();
    service.reset();
    deciders.clear();
    const std::uint64_t t0 = now_ns();
    service = std::make_unique<serve::DecisionService>(
        serve::DecisionService::Options{.num_actions = kActions,
                                        .dim = kDim,
                                        .log_capacity = kRing,
                                        .seed = opt.seed},
        serve::PolicySnapshot::uniform(1, kActions, kDim));
    for (std::size_t t = 0; t < kDeciders; ++t) {
      deciders.push_back(&service->add_decider());
    }
    serve::SnapshotTrainer::Options retrain;
    retrain.epsilon = 0.1;
    retrain.min_rows = 1024;
    retrain.reward_range = {0, 1};
    retrain.window_rows = kWindowRows;
    trainer = std::make_unique<serve::SnapshotTrainer>(*service, retrain);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  Timeline tl;
  const auto window_ns = static_cast<std::uint64_t>(opt.seconds * 1e9);
  tl.start = now_ns() + 10'000'000;
  tl.measure = tl.start + kWarmupNs;
  tl.end = tl.measure + window_ns;
  tl.traced = opt.traced ? tl.measure + window_ns / 2 : tl.end;

  std::vector<std::unique_ptr<Tally>> tallies;
  for (std::size_t t = 0; t < kDeciders; ++t) {
    tallies.push_back(std::make_unique<Tally>(tl, window_ns / kSliceNs + 1));
  }
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kDeciders; ++t) {
    workers.emplace_back([&, t] {
      decide_open_loop(*deciders[t], env, tl, opt.seed, t, opt.traced,
                       *tallies[t]);
    });
  }

  // ---- trainer rounds on a fixed period ----------------------------------
  Result result;
  std::vector<double> untraced_ms, traced_ms;
  double retired_max = 0;
  std::uint64_t prev_id = 1;
  std::uint64_t since = 0;
  bool tracing = false;
  std::uint64_t tick = tl.start + kPeriodNs;
  try {
    for (std::uint64_t r = 0; tick < tl.end; ++r) {
      for (std::uint64_t now = now_ns(); now < tick; now = now_ns()) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(tick - now));
      }
      if (opt.traced && !tracing && tick >= tl.traced) {
        since = now_ns();
        rec.set_enabled(true);
        tracing = true;
      }
      const std::uint64_t c0 = now_ns();
      std::uint64_t id = 0;
      {
        const auto round_span = span(kRoundSpan, r, service->current_id());
        {
          auto s = span("serve.collect", r);
          s.set_args(r, trainer->collect());
        }
        auto s = span("serve.train", r);
        s.set_args(r, trainer->buffered_rows());
        id = trainer->train_and_publish();
      }
      const std::uint64_t c1 = now_ns();
      if (c0 >= tl.measure) (tracing ? traced_ms : untraced_ms).push_back(ms(c1 - c0));
      if (id != 0) {
        result.check(id > prev_id, "trainer round " + std::to_string(r) +
                                       ": snapshot id not increasing");
        prev_id = id;
      }
      retired_max = std::max(retired_max,
                             static_cast<double>(service->retired_count()));
      tick += kPeriodNs;
    }
  } catch (...) {
    // Deciders stop on their own at tl.end; join them before unwinding.
    for (auto& w : workers) w.join();
    throw;
  }
  rec.set_enabled(false);
  for (auto& w : workers) w.join();
  trainer->collect();  // drain what the last period logged

  // ---- output checks -----------------------------------------------------
  LatencyHistogram untraced, traced, lateness;
  double call_ns = 0, final_reward = 0, uniform_reward = 0;
  std::uint64_t calls = 0, final_n = 0, uniform_n = 0;
  double serve_rate = 0;  // decisions/s, from completion times
  std::uint64_t pushed = 0;
  for (std::size_t t = 0; t < kDeciders; ++t) {
    Tally& tally = *tallies[t];
    const serve::Decider& decider = *deciders[t];
    if (opt.break_check == "unpublished-id") {
      tally.served_ids.push_back(service->current_id() + 1000);
    }
    const std::string who = "decider " + std::to_string(t) + ": ";
    result.check(decider.decided() == tally.pacer.issued(),
                 who + "decided " + std::to_string(decider.decided()) +
                     " != issued " + std::to_string(tally.pacer.issued()));
    // log_reward follows every decide, so nothing stays staged.
    result.check(decider.logged() + decider.dropped() == decider.decided(),
                 who + "pushed + dropped + staged != decided");
    for (std::uint64_t id : tally.served_ids) {
      result.check(service->was_published(id),
                   who + "served snapshot " + std::to_string(id) +
                       " that was never published");
    }
    untraced.merge(tally.untraced);
    traced.merge(tally.traced);
    lateness.merge(tally.pacer.lateness());
    call_ns += tally.call_ns;
    calls += tally.calls;
    if (tally.completed > 1) {
      serve_rate += static_cast<double>(tally.completed - 1) * 1e9 /
                    static_cast<double>(tally.last_done - tally.first_done);
    }
    final_reward += tally.final_reward;
    final_n += tally.final_n;
    uniform_reward += tally.uniform_reward;
    uniform_n += tally.uniform_n;
    pushed += decider.logged();
    result.attempted += decider.decided();
  }
  result.check(trainer->collected() == pushed,
               "trainer collected " + std::to_string(trainer->collected()) +
                   " records != pushed " + std::to_string(pushed));
  result.failed += service->dropped_total() + service->orphaned_total() +
                   trainer->unlabeled_dropped() +
                   trainer->dim_mismatch_dropped();
  final_reward /= static_cast<double>(std::max<std::uint64_t>(1, final_n));
  uniform_reward /= static_cast<double>(std::max<std::uint64_t>(1, uniform_n));
  result.check(untraced_ms.size() >= 3, "fewer than 3 measured trainer rounds");
  result.check(uniform_n == 0 || final_reward > uniform_reward,
               "reward_final " + std::to_string(final_reward) +
                   " does not beat the uniform snapshot's " +
                   std::to_string(uniform_reward));
  service->reclaim_all();

  if (!opt.traced) {
    EndToEnd e2e;
    e2e.setup_s = median(setup_s);
    e2e.round_ms = median(untraced_ms);
    // The newest decision a snapshot learned from was logged just before
    // collect() began; publish returns at the end of the round.
    e2e.feedback_ms = e2e.round_ms;
    e2e.serve_mdps = serve_rate / 1e6;
    // Call-time mean and p90 per second of due time, then their medians: a
    // host hiccup moves one slice, not the run's figure.
    std::vector<double> means, p90s;
    for (std::size_t i = 0; i < tallies[0]->slices.size(); ++i) {
      LatencyHistogram slice;
      for (const auto& tally : tallies) slice.merge(tally->slices[i]);
      if (slice.count() < kSliceMinSamples) continue;  // a partial last slice
      means.push_back(slice.trimmed_mean(kDecideMeanShare));
      p90s.push_back(slice.interpolated_percentile(0.90));
    }
    result.check(!means.empty(), "no one-second slice timed " +
                                    std::to_string(kSliceMinSamples) +
                                    " decisions; decide latency unmeasured");
    if (!means.empty()) {
      e2e.decide_mean_ns = median(means);
      e2e.decide_p90_ns = median(p90s);
    }
    e2e.reward_final = final_reward;
    std::printf("serve-live: %zu measured trainer rounds, %llu decisions "
                "timed\n",
                untraced_ms.size(),
                static_cast<unsigned long long>(untraced.count()));
    add_end_to_end(result, e2e);
    return result;
  }

  const std::vector<harvest::obs::Event> events = rec.snapshot_events();
  const LedgerReport report = analyze(events, since);
  // Tail attribution: which above-p99 decisions of the traced half ran while
  // the trainer was collecting, training or publishing.
  const std::uint64_t p99 = traced.percentile(0.99);
  const auto trainer_spans =
      span_intervals(events, {"serve.collect", "serve.train"}, since);
  std::uint64_t above = 0, overlapping = 0;
  for (const auto& tally : tallies) {
    for (const auto& [due, done] : tally->slow) {
      if (done - due <= p99) continue;
      ++above;
      // First trainer span ending after `due`; it overlaps if it starts
      // before `done`.
      const auto it = std::lower_bound(
          trainer_spans.begin(), trainer_spans.end(), due,
          [](const auto& span_, std::uint64_t t) { return span_.second <= t; });
      if (it != trainer_spans.end() && it->first < done) ++overlapping;
    }
  }
  LatencyHistogram all = untraced;
  all.merge(traced);
  PerLayer l;
  l.decide_ns = calls == 0 ? 0 : call_ns / static_cast<double>(calls);
  l.decide_p99_ns = static_cast<double>(all.percentile(0.99));
  l.decide_p999_ns = static_cast<double>(all.percentile(0.999));
  l.decide_max_ns = static_cast<double>(all.max());
  l.tail_trainer_overlap_frac =
      above == 0 ? 0 : static_cast<double>(overlapping) / static_cast<double>(above);
  l.pacer_late_p99_ns = static_cast<double>(lateness.percentile(0.99));
  l.collect_ns_per_row = report.at("serve.collect").self_ns_per_row();
  l.train_ms = report.at("serve.train").self_ms_per_call();
  l.train_ns_per_row = report.at("serve.train").self_ns_per_row();
  l.swaps = static_cast<double>(service->swaps());
  l.reclaimed = static_cast<double>(service->reclaimed());
  l.retired_max = retired_max;
  l.trace_overhead_frac = overhead_frac(traced_ms, untraced_ms);
  std::printf("serve-live tail: traced p99=%llu ns, %llu decisions above it, "
              "%llu overlap a trainer span\n",
              static_cast<unsigned long long>(p99),
              static_cast<unsigned long long>(above),
              static_cast<unsigned long long>(overlapping));
  finish_trace(result, report, opt, "serve-live per-layer ledger");
  add_per_layer(result, l, report);
  return result;
}

}  // namespace roundbench
