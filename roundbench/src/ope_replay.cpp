// ope-replay: read-only offline evaluation at K=9 actions, D=8 features.
// Set-up serves 64k decisions under eps-greedy logging and writes them as a
// partitioned HLOG dataset of 4 parts. Each pass then runs Dataset::open ->
// logs::scavenge -> core::train_cb_policy_with_model -> IPS, SNIPS and DR over
// 4 candidates -> design::plan_logging for the same candidates, and scavenges
// once more with a recent-time-window ScanPredicate so zone-map pruning runs.
// The candidates are the trained greedy policy, eps-greedy(trained, 0.1) and
// two constant policies. The serve figures (serve_mdps, decide_mean_ns,
// decide_p90_ns) come from closed-loop phases of the logging policy served on
// one long-lived service, one phase after each pass.
//
// The dataset is 64k rows, not 1M, so a pass's working set (the dataset, the
// scavenged rows, the fit) stays in cache and a 5-s run holds ~10 passes.
// 1M-row passes took ~3 s, streamed their ~0.3 GB working set through memory
// a dozen times, and their median moved 25-28% between runs of the same code
// on a shared host.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/estimators/direct.h"
#include "core/estimators/ips.h"
#include "core/policies/basic.h"
#include "core/reward_model.h"
#include "core/train/trainer.h"
#include "design/planner.h"
#include "ledger.h"
#include "logs/scavenger.h"
#include "obs/recorder.h"
#include "par/thread_pool.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "store/crc32c.h"
#include "store/dataset.h"
#include "workloads.h"

namespace roundbench {

namespace {

namespace fs = std::filesystem;
namespace core = harvest::core;
namespace serve = harvest::serve;
namespace store = harvest::store;

constexpr std::size_t kActions = 9;
constexpr std::size_t kDim = 8;
constexpr std::size_t kRows = 64'000;
constexpr std::size_t kDeciders = 2;
constexpr std::size_t kPerDecider = kRows / kDeciders;
constexpr std::uint64_t kRowsPerPart = kRows / 4;
constexpr double kLoggingEpsilon = 0.3;
/// The recent-time window: each decider's newest 10% of rows (the HLOG time
/// column is the decider-local sequence number).
constexpr double kWindowStart = 0.9 * kPerDecider;
/// Measured passes run on one thread. A pool makes a pass wait for whichever
/// of its threads the host delays, and for every worker wake-up: over four
/// runs the pass median spread 13% with a 2-thread pool and 4% with none, and
/// with a 4-thread pool it rose 44% under ~12% host CPU steal.
constexpr int kPoolThreads = 1;
/// The reference pass made at set-up uses a pool of this many threads, so the
/// check that every pass is bit-identical to it also covers thread-count
/// invariance.
constexpr int kReferenceThreads = 2;

/// One closed-loop serve phase: kRows decisions from kDeciders threads, each
/// timing every kSampleStride-th decide() call.
struct Served {
  std::uint64_t wall_ns = 0;
  LatencyHistogram sampled;  // the sampled decide() timings
};

/// One logging run: serve the dataset's decisions, write them to HLOG.
struct Logged {
  double seconds = 0;
  std::uint64_t failed = 0;
  std::vector<double> times;  // HLOG time of every written row, in order
};

/// The production heuristic whose randomness is harvested: eps-greedy over
/// fixed, imperfect weights (geometry-keyed, seed-independent).
std::unique_ptr<const serve::PolicySnapshot> logging_snapshot() {
  harvest::util::Rng rng(harvest::util::derive_stream_seed(
      0x4C4F47u /* "LOG" */, (kActions << 16) | kDim));
  std::vector<double> weights(kActions * (kDim + 1));
  for (double& w : weights) w = rng.uniform(-0.4, 0.4);
  return std::make_unique<const serve::PolicySnapshot>(
      1, kActions, kDim, std::move(weights), kLoggingEpsilon);
}

/// A logging service whose rings hold one serve phase, with its deciders.
struct Logger {
  std::unique_ptr<serve::DecisionService> service;
  std::vector<serve::Decider*> deciders;
};

Logger make_logger(const Options& opt) {
  std::size_t ring = 2;
  while (ring < kPerDecider + 1) ring <<= 1;
  Logger out;
  out.service = std::make_unique<serve::DecisionService>(
      serve::DecisionService::Options{.num_actions = kActions,
                                      .dim = kDim,
                                      .log_capacity = ring,
                                      .seed = opt.seed},
      logging_snapshot());
  for (std::size_t t = 0; t < kDeciders; ++t) {
    out.deciders.push_back(&out.service->add_decider());
  }
  return out;
}

/// Serves phase `phase`: decider t draws contexts from context_stream(phase,
/// t). The records stay in the rings for the caller to drain.
Served serve_phase(Logger& logger, const Options& opt, const Environment& env,
                   std::uint64_t phase) {
  std::vector<LatencyHistogram> hists(kDeciders);
  const std::uint64_t s0 = now_ns();
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kDeciders; ++t) {
    workers.emplace_back([&, t] {
      ContextStream contexts(opt.seed, context_stream(phase, t), kDim);
      harvest::util::Rng noise(
          harvest::util::derive_stream_seed(opt.seed, noise_stream(phase, t)));
      serve::Decider& decider = *logger.deciders[t];
      const std::uint64_t overhead = timer_overhead_ns();
      double x[kDim];
      for (std::size_t i = 0; i < kPerDecider; ++i) {
        contexts.next(x);
        serve::Decision d;
        if (i % kSampleStride == 0) {
          const std::uint64_t a = now_ns();
          d = decider.decide(x);
          const std::uint64_t raw = now_ns() - a;
          const std::uint64_t took = raw > overhead ? raw - overhead : 0;
          hists[t].add(took);
        } else {
          d = decider.decide(x);
        }
        decider.log_reward(env.reward(x, d.action, noise));
      }
    });
  }
  for (auto& w : workers) w.join();
  const std::uint64_t s1 = now_ns();
  Served out;
  out.wall_ns = s1 - s0;
  for (const LatencyHistogram& h : hists) out.sampled.merge(h);
  return out;
}

Logged serve_and_write(const Options& opt, const Environment& env,
                       const store::Schema& schema, const fs::path& dir,
                       Result& result) {
  fs::remove_all(dir);
  Logged out;
  const std::uint64_t t0 = now_ns();
  Logger logger = make_logger(opt);
  serve_phase(logger, opt, env, 0);

  out.times.reserve(kRows);
  store::DatasetWriter writer(dir.string(), schema, {}, kRowsPerPart);
  const serve::ServeDrainStats drained =
      logger.service->drain([&](const serve::DecisionRecord& rec) {
        writer.add(rec.time, std::span<const double>(rec.context, rec.dim),
                   rec.action, rec.reward, rec.propensity);
        out.times.push_back(rec.time);
      });
  writer.finish();
  out.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  result.check(drained.drained == kRows && drained.dropped_total == 0,
               "logging run drained " + std::to_string(drained.drained) +
                   " of " + std::to_string(kRows) + " decisions");
  out.failed = drained.dropped_total + drained.orphaned_rewards;
  return out;
}

/// CRC32C of every file in `dir`, in name order: the dataset's fingerprint.
std::vector<std::uint32_t> fingerprint(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::vector<std::uint32_t> crcs;
  for (const fs::path& file : files) {
    std::ifstream in(file, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    crcs.push_back(store::crc32c(bytes));
  }
  return crcs;
}

/// What one pass computed, for the cross-pass bit-identity check.
struct Pass {
  std::uint64_t ns = 0;
  std::vector<double> estimates;  // value and stderr per (estimator, candidate)
  double greedy_dr = 0;           // DR value of the trained greedy candidate
  double planned_objective = 0;
  double baseline_objective = 0;
  std::size_t rows = 0;
  std::uint64_t dropped = 0;
  bool window_matches = false;
};

bool same_point(const core::ExplorationPoint& a,
                const core::ExplorationPoint& b) {
  const auto x = a.context.values();
  const auto y = b.context.values();
  return a.action == b.action &&
         std::memcmp(&a.reward, &b.reward, sizeof(double)) == 0 &&
         std::memcmp(&a.propensity, &b.propensity, sizeof(double)) == 0 &&
         x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

Pass run_pass(std::uint64_t p, const fs::path& dir,
              const harvest::logs::ScavengeSpec& spec,
              const std::vector<double>& times, bool drop_window_row) {
  Pass out;
  harvest::logs::ScavengeResult full{
      core::ExplorationDataset(kActions, spec.reward_range)};
  harvest::logs::ScavengeResult window{
      core::ExplorationDataset(kActions, spec.reward_range)};
  {
    const auto round_span = span(kRoundSpan, p);
    const std::uint64_t t0 = now_ns();
    std::unique_ptr<const store::Dataset> dataset;
    {
      const auto s = span("store.open", p);
      dataset = std::make_unique<const store::Dataset>(
          store::Dataset::open(dir.string()));
    }
    {
      const auto s = span("logs.scavenge", p, dataset->rows());
      full = harvest::logs::scavenge(*dataset, spec);
    }
    const core::ExplorationDataset& data = full.data;
    std::pair<core::PolicyPtr, core::RewardModelPtr> trained;
    {
      const auto s = span("core.fit", p, data.size());
      trained = core::train_cb_policy_with_model(data, core::TrainConfig{});
    }
    const std::vector<core::PolicyPtr> candidates = {
        trained.first,
        std::make_shared<core::EpsilonGreedyPolicy>(trained.first, 0.1),
        std::make_shared<core::ConstantPolicy>(kActions, 0),
        std::make_shared<core::ConstantPolicy>(kActions, 1)};
    const core::IpsEstimator ips;
    const core::SnipsEstimator snips;
    const core::DoublyRobustEstimator dr(trained.second);
    const std::pair<const char*, const core::OffPolicyEstimator*> estimators[] =
        {{"core.estimate.ips", &ips},
         {"core.estimate.snips", &snips},
         {"core.estimate.dr", &dr}};
    for (const auto& [name, estimator] : estimators) {
      for (const core::PolicyPtr& candidate : candidates) {
        const auto s = span(name, p, data.size());
        const core::Estimate e = estimator->evaluate(data, *candidate);
        out.estimates.push_back(e.value);
        out.estimates.push_back(e.stderr_value);
      }
    }
    out.greedy_dr = out.estimates[2 * 2 * candidates.size()];
    {
      const auto s = span("design.plan", p, data.size());
      const auto& ridge =
          dynamic_cast<const core::RidgeRewardModel&>(*trained.second);
      std::vector<double> reference;
      for (std::size_t a = 0; a < kActions; ++a) {
        const auto& row = ridge.weights(static_cast<core::ActionId>(a));
        reference.insert(reference.end(), row.begin(), row.end());
      }
      harvest::design::PlannerConfig config;
      config.propensity_floor = 0.02;
      config.baseline_epsilon = 0.2;
      const harvest::design::PlannerReport plan = harvest::design::plan_logging(
          data, candidates, ridge, std::move(reference), kDim, config);
      out.planned_objective = plan.planned_objective;
      out.baseline_objective = plan.baseline_objective;
    }
    {
      store::ScanPredicate recent;
      recent.min_time = kWindowStart;
      auto s = span("logs.scavenge_window", p);
      window = harvest::logs::scavenge(*dataset, spec, recent);
      s.set_args(p, window.data.size());
    }
    out.ns = now_ns() - t0;
  }
  out.rows = full.data.size();
  out.dropped = full.total_dropped();

  // Windowed scavenge == full scavenge filtered by the same window.
  std::size_t w = 0;
  bool matches = full.data.size() == times.size();
  const std::size_t window_size =
      window.data.size() - (drop_window_row && !window.data.empty() ? 1 : 0);
  for (std::size_t i = 0; matches && i < full.data.size(); ++i) {
    if (times[i] < kWindowStart) continue;
    matches = w < window_size && same_point(full.data[i], window.data[w]);
    ++w;
  }
  out.window_matches = matches && w == window_size;
  return out;
}

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Runs the measured passes on each allowed CPU in turn. A single thread
/// otherwise stays on one core for most of a short run, and on a shared host
/// cores differ in speed (a busy neighbour on the same physical core), so
/// whole 5-s runs read fast or slow: pass medians split ~310 vs ~440 ms
/// between runs. Rotating, every run samples every core.
class CpuRotation {
 public:
  CpuRotation() {
    sched_getaffinity(0, sizeof all_, &all_);
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
    }
  }
  /// Pins the calling thread to the pass's CPU.
  void pin(std::uint64_t pass) const {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[pass % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }
  /// Lets the calling thread (and threads it starts) run anywhere again.
  void release() const { sched_setaffinity(0, sizeof all_, &all_); }

 private:
  cpu_set_t all_{};
  std::vector<int> cpus_;
};

}  // namespace

Result run_ope_replay(const Options& opt) {
  harvest::obs::Recorder& rec = harvest::obs::Recorder::global();
  rec.set_enabled(false);
  // Set-up runs two deciders and this thread; no pool until the reference.
  harvest::par::set_default_threads(1);

  const Environment env(kActions, kDim);
  const store::Schema schema = make_schema(kActions, kDim);
  const harvest::logs::ScavengeSpec spec = make_spec(schema);
  const fs::path dir = fs::path(opt.workdir) / "dataset";
  Result result;

  // ---- set-up: the logging run, repeated; same seed, same bytes ----------
  std::vector<double> setup_s;
  std::vector<std::uint32_t> first_print;
  Logged logged;
  for (int i = 0; i < kSetupRepeats; ++i) {
    logged = serve_and_write(opt, env, schema, dir, result);
    setup_s.push_back(logged.seconds);
    const std::vector<std::uint32_t> print = fingerprint(dir);
    if (i == 0) first_print = print;
    result.check(print == first_print,
                 "logging run " + std::to_string(i) +
                     " wrote different bytes for the same seed");
  }
  result.failed += logged.failed;

  // ---- the serve figures: the logging policy on one long-lived service ----
  // A phase runs after each measured pass, so the phases sample the host over
  // the whole window as the passes do; taken back to back in set-up they saw
  // two seconds of it, and their figures moved 20% from run to run. Phase 0
  // first-touches the rings and is not counted: in a fresh service the ring's
  // page faults made a phase's figures vary twofold.
  LatencyHistogram decide_hist;
  double serve_ns = 0;  // wall time of the counted phases
  std::vector<double> phase_mdps, phase_mean, phase_p90;
  Logger logger = make_logger(opt);
  std::uint64_t phase = 0;
  const auto serve_one_phase = [&] {
    const Served served = serve_phase(logger, opt, env, phase);
    const serve::ServeDrainStats drained =
        logger.service->drain([](const serve::DecisionRecord&) {});
    result.check(drained.drained == kRows && drained.dropped_total == 0,
                 "serve phase " + std::to_string(phase) + " drained " +
                     std::to_string(drained.drained) + " of " +
                     std::to_string(kRows) + " decisions");
    result.attempted += kRows;
    result.failed += drained.dropped_total + drained.orphaned_rewards;
    if (phase++ == 0) return;
    serve_ns += static_cast<double>(served.wall_ns);
    phase_mdps.push_back(static_cast<double>(kRows) * 1e3 /
                         static_cast<double>(served.wall_ns));
    phase_mean.push_back(served.sampled.trimmed_mean(kDecideMeanShare));
    phase_p90.push_back(served.sampled.interpolated_percentile(0.90));
    decide_hist.merge(served.sampled);
  };
  serve_one_phase();

  // The reference: one pass on a kReferenceThreads pool, before any timed
  // pass.
  harvest::par::set_default_threads(kReferenceThreads);
  const Pass reference = run_pass(0, dir, spec, logged.times, false);
  result.check(reference.planned_objective <= reference.baseline_objective,
               "plan objective worse than eps-greedy's");
  harvest::par::set_default_threads(kPoolThreads);

  // ---- measured passes, each followed by a serve phase -------------------
  std::vector<double> untraced_ms, traced_ms;
  double pruned_before = 0, scanned_before = 0;
  std::uint64_t since = 0;
  const std::uint64_t start = now_ns();
  const auto window_ns = static_cast<std::uint64_t>(opt.seconds * 1e9);
  const std::uint64_t half = opt.traced ? start + window_ns / 2 : start + window_ns;
  std::uint64_t p = 1;
  double reward_final = 0;
  const CpuRotation rotation;
  const auto measure = [&](std::vector<double>& into) {
    rotation.pin(p);
    Pass pass = run_pass(p, dir, spec, logged.times,
                         opt.break_check == "window-row");
    rotation.release();  // before the serve phase starts its deciders
    if (opt.break_check == "perturb-estimate" && p == 2) {
      pass.estimates[0] = std::nextafter(pass.estimates[0], 2.0);
    }
    const std::string at = "pass " + std::to_string(p) + ": ";
    result.check(bit_identical(pass.estimates, reference.estimates),
                 at + "estimates differ from the 2-thread reference");
    result.check(pass.planned_objective == reference.planned_objective &&
                     pass.planned_objective <= pass.baseline_objective,
                 at + "plan objective differs or is worse than eps-greedy's");
    result.check(pass.window_matches,
                 at + "windowed scavenge != full scavenge filtered by window");
    result.check(pass.rows == kRows, at + "scavenged " +
                                         std::to_string(pass.rows) + " rows");
    result.attempted += kRows;
    result.failed += pass.dropped;
    reward_final = pass.greedy_dr;
    into.push_back(ms(pass.ns));
    ++p;
    serve_one_phase();
  };
  while (now_ns() < half || untraced_ms.size() < 3) measure(untraced_ms);
  if (opt.traced) {
    pruned_before = registry_counter("store_blocks_pruned_total");
    scanned_before = registry_counter("store_blocks_scanned_total");
    since = now_ns();
    rec.set_enabled(true);
    while (now_ns() < start + window_ns || traced_ms.size() < 3) {
      measure(traced_ms);
    }
    rec.set_enabled(false);
  }
  const double served_rows = static_cast<double>((phase - 1) * kRows);

  if (!opt.traced) {
    EndToEnd e2e;
    e2e.setup_s = median(setup_s);
    e2e.round_ms = median(untraced_ms);
    e2e.feedback_ms = e2e.round_ms;  // the dataset is complete when a pass starts
    e2e.serve_mdps = median(phase_mdps);
    e2e.decide_mean_ns = median(phase_mean);
    e2e.decide_p90_ns = median(phase_p90);
    e2e.reward_final = reward_final;
    std::printf("ope-replay: %zu measured passes over %zu rows\n",
                untraced_ms.size(), kRows);
    add_end_to_end(result, e2e);
    return result;
  }

  const LedgerReport report = analyze(rec.snapshot_events(), since);
  const auto per_pass = [&](const char* counter, double before) {
    return (registry_counter(counter) - before) /
           static_cast<double>(traced_ms.size());
  };
  PerLayer l;
  l.decide_ns = decide_hist.trimmed_mean(1.0);
  l.decide_phase_ns = serve_ns * kDeciders / served_rows;
  l.decide_p99_ns = static_cast<double>(decide_hist.percentile(0.99));
  l.decide_p999_ns = static_cast<double>(decide_hist.percentile(0.999));
  l.decide_max_ns = static_cast<double>(decide_hist.max());
  l.open_ms = report.at("store.open").self_ms_per_call();
  l.blocks_pruned = per_pass("store_blocks_pruned_total", pruned_before);
  l.blocks_scanned = per_pass("store_blocks_scanned_total", scanned_before);
  const SpanStats scavenge = report.at("logs.scavenge");
  l.scavenge_ns_per_row = scavenge.self_ns_per_row();
  l.scavenge_rows = scavenge.calls == 0 ? 0
                                        : static_cast<double>(scavenge.rows) /
                                              static_cast<double>(scavenge.calls);
  l.fit_ns_per_row = report.at("core.fit").self_ns_per_row();
  l.ips_ns = report.at("core.estimate.ips").self_ns_per_row();
  l.snips_ns = report.at("core.estimate.snips").self_ns_per_row();
  l.dr_ns = report.at("core.estimate.dr").self_ns_per_row();
  l.plan_ms = report.at("design.plan").self_ms_per_call();
  l.trace_overhead_frac = overhead_frac(traced_ms, untraced_ms);
  finish_trace(result, report, opt, "ope-replay per-layer ledger");
  add_per_layer(result, l, report);
  return result;
}

}  // namespace roundbench
