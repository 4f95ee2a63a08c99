// The three round-ledger workloads. Each runs in one process with at most
// four threads in total (deciders + trainer + par pool) and returns the
// metrics of its mode: end-to-end with the flight recorder disabled, or
// per-layer from a traced run. A traced run measures the first half of its
// window untraced and the second half traced, so obs.trace_overhead_frac is
// the traced rounds' median over the untraced rounds' median, minus one.
//
// Every workload reports every metric; one that a workload does not exercise
// (a layer it bypasses) reads 0. roundbench/README.md gives each
// workload, why it was chosen, and which end-to-end metric each layer metric
// should move.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kit.h"
#include "logs/scavenger.h"
#include "store/format.h"

namespace roundbench {

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10;   ///< measured window, set-up and warm-up excluded
  bool traced = false;   ///< per-layer mode
  std::string workdir;   ///< scratch directory for datasets and snapshots
  std::string trace_out; ///< Chrome trace path (traced runs)
  /// Deliberately breaks one output check, to show the check fires:
  /// drop-record (loop-narrow), unpublished-id (serve-live),
  /// perturb-estimate and window-row (ope-replay). Empty = none.
  std::string break_check;
};

Result run_loop_narrow(const Options& options);
Result run_serve_live(const Options& options);
Result run_ope_replay(const Options& options);

// ---- shared by the workloads ----------------------------------------------

/// The HLOG schema every workload logs under, and the scavenge spec that
/// reads it back (the field mapping of tools/harvest_serve).
harvest::store::Schema make_schema(std::size_t num_actions, std::size_t dim);
harvest::logs::ScavengeSpec make_spec(const harvest::store::Schema& schema);

/// Nanoseconds on the flight recorder's clock (steady_clock), shared by the
/// benchmark's timers and its spans.
std::uint64_t now_ns();
inline double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Set-up runs this many times; setup_s is the median. Set-ups take 1-40 ms,
/// so a median of 9 moved 25-40% between runs on a shared host.
inline constexpr int kSetupRepeats = 51;

/// decide_mean_ns is the mean of this share of the fastest calls. The slowest
/// 1% are host stalls of 1-30 us: left in, they moved the mean of a slice
/// above its p90 and spread it 32% over ten runs. They stay visible in the
/// per-layer p99, p999 and max.
inline constexpr double kDecideMeanShare = 0.99;

/// Decide timings sampled from a closed loop: every kSampleStride-th call is
/// timed with two clock reads, less timer_overhead_ns().
inline constexpr std::uint64_t kSampleStride = 64;

/// Median cost of two back-to-back now_ns() reads on the calling thread.
/// Sampled decide() timings subtract it, so the timer's own cost (which on a
/// VM differs from run to run) stays out of them.
std::uint64_t timer_overhead_ns();

/// The end-to-end metrics, in BENCHMARK.json order. Every workload fills
/// every field.
struct EndToEnd {
  double setup_s = 0;
  double round_ms = 0;
  double feedback_ms = 0;
  double serve_mdps = 0;
  /// A mean, not the median: decide() call times form two populations (at
  /// 16x16 ~200 ns and 300-400 ns, at 3x4 22-28 ns and 37-60 ns), the median
  /// falls where one ends, and it jumped 25-45% between runs as the share of
  /// slow calls moved around one half. The mean moves in proportion to it.
  /// It leaves out the slowest calls (kDecideMeanShare).
  double decide_mean_ns = 0;
  double decide_p90_ns = 0;
  double reward_final = 0;
};
void add_end_to_end(Result& result, const EndToEnd& e2e);

/// The per-layer metrics, in BENCHMARK.json order; a layer a workload does
/// not exercise keeps 0.
struct PerLayer {
  double decide_ns = 0, decide_phase_ns = 0, decide_p99_ns = 0,
         decide_p999_ns = 0,
         decide_max_ns = 0, tail_trainer_overlap_frac = 0,
         pacer_late_p99_ns = 0;
  double drain_ns_per_row = 0, collect_ns_per_row = 0;
  double train_ms = 0, train_ns_per_row = 0, publish_us = 0, persist_us = 0;
  double swaps = 0, reclaimed = 0, retired_max = 0;
  double write_ns_per_row = 0, write_bytes_per_row = 0, open_ms = 0,
         blocks_pruned = 0, blocks_scanned = 0;
  double scavenge_ns_per_row = 0, scavenge_rows = 0;
  double fit_ns_per_row = 0, ips_ns = 0, snips_ns = 0, dr_ns = 0;
  double plan_ms = 0;
  double trace_overhead_frac = 0;
};
struct LedgerReport;
void add_per_layer(Result& result, const PerLayer& layers,
                   const LedgerReport& report);

/// Traced-run epilogue shared by the workloads: prints the per-layer table,
/// writes the Chrome trace, and checks the ledger accounts for >= 90% of
/// round wall time.
void finish_trace(Result& result, const LedgerReport& report,
                  const Options& options, const std::string& title);

/// Median ratio of the traced to the untraced round times, minus one.
double overhead_frac(const std::vector<double>& traced,
                     const std::vector<double>& untraced);

/// Current value of a counter in obs::Registry::global().
double registry_counter(const char* name);

}  // namespace roundbench
