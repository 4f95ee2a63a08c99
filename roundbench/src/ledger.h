// The round ledger: the benchmark's own spans around each call it makes into
// a harvest layer, and the per-layer report computed from them.
//
// Spans go to the process-wide flight recorder (obs::Recorder::global()), so
// the Chrome trace a traced run writes and the per-layer table it prints come
// from the same events. Span names are "<layer>.<op>" (serve.drain,
// store.write, logs.scavenge, core.fit, design.plan, ...) plus one "round"
// span bracketing each round or pass. Arg a is the round or pass id; arg b is
// the rows the call processed (on a round span: the served snapshot id).
//
// While the recorder is disabled, span() records nothing and costs one
// relaxed load, so the untraced runs measure the same code.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/recorder.h"

namespace roundbench {

inline constexpr std::string_view kRoundSpan = "round";
/// The layers a share is reported for, in report order.
inline constexpr std::string_view kLayers[] = {"serve", "store", "logs",
                                               "core", "design"};

/// Records one benchmark span on the global recorder from construction to
/// destruction.
harvest::obs::RecSpan span(std::string_view name, std::uint64_t id,
                           std::uint64_t rows = 0);

/// Records a benchmark span over [start_ns, end_ns) after the fact, for a
/// span whose scope does not match a C++ block.
void record_span(std::string_view name, std::uint64_t start_ns,
                 std::uint64_t end_ns, std::uint64_t id, std::uint64_t rows);

struct SpanStats {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;  ///< total minus time covered by child spans
  std::uint64_t rows = 0;

  double self_ns_per_row() const {
    return rows == 0 ? 0 : static_cast<double>(self_ns) / rows;
  }
  double self_ms_per_call() const {
    return calls == 0 ? 0 : static_cast<double>(self_ns) / 1e6 / calls;
  }
};

struct LedgerReport {
  std::map<std::string, SpanStats> spans;  ///< benchmark spans by name
  /// Self time of each layer's spans nested inside round spans: the
  /// blocking path of the rounds.
  std::map<std::string, std::uint64_t> layer_self_ns;
  std::uint64_t rounds = 0;
  std::uint64_t round_ns = 0;  ///< summed wall time of the round spans

  /// Stats of one span name (all zero when it never ran).
  SpanStats at(const std::string& name) const;
  /// A layer's self time over the rounds' wall time.
  double share(std::string_view layer) const;
  /// Sum of every layer's share: the part of round wall time the spans
  /// account for.
  double coverage() const;
};

/// Builds the report from the recorder's benchmark spans that start at or
/// after `since_ns` (recorder clock). Nesting is interval containment on one
/// thread, as in tools/harvest_trace.
LedgerReport analyze(const std::vector<harvest::obs::Event>& events,
                     std::uint64_t since_ns);

/// [start, end) of every recorded span with one of `names`, started at or
/// after `since_ns`, sorted by start.
std::vector<std::pair<std::uint64_t, std::uint64_t>> span_intervals(
    const std::vector<harvest::obs::Event>& events,
    const std::vector<std::string_view>& names, std::uint64_t since_ns);

/// Prints the per-layer table: calls, self time, rows/s and share per span,
/// then per layer, then the coverage line.
void print_table(const LedgerReport& report, const std::string& title);

/// Writes the recorder's Chrome trace to `path`; false on I/O failure.
bool write_chrome_trace(const std::string& path);

}  // namespace roundbench
