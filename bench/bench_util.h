// Shared helpers for the reproduction benches: banners, paper-vs-measured
// table assembly, and common flags (--seed, --fast, --metrics-out,
// --threads, --trace-out).
#pragma once

#include <chrono>
#include <fstream>
#include <iostream>
#include <string>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "par/thread_pool.h"
#include "util/flags.h"

namespace harvest::bench {

/// Prints the standard experiment banner.
inline void banner(const std::string& experiment, const std::string& claim) {
  std::cout << "==============================================================="
               "=\n"
            << experiment << "\n"
            << "Paper claim: " << claim << "\n"
            << "==============================================================="
               "=\n";
}

/// Common bench flags: seed, fast mode (CI-scale runs), worker threads
/// (--threads N; 0 or 1 runs sequentially — results are bit-identical
/// either way, see src/par/par.h), an optional JSONL dump of every metric
/// the run recorded (--metrics-out run.jsonl), and an optional flight
/// recorder trace dump (--trace-out trace.json).
struct CommonFlags {
  std::uint64_t seed = 42;
  bool fast = false;
  std::size_t threads = 1;
  std::string metrics_out;
  std::string trace_out;

  static CommonFlags parse(const util::Flags& flags) {
    CommonFlags out;
    out.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
    out.fast = flags.get_bool("fast", false);
    out.threads = static_cast<std::size_t>(flags.get_int("threads", 1));
    out.metrics_out = flags.get_string("metrics-out", "");
    out.trace_out = flags.get_string("trace-out", "");
    // Installs the process-wide pool consumed by par::default_pool() inside
    // estimators, fitters, and the harvest pipeline.
    par::set_default_threads(out.threads);
    obs::Recorder::global().set_thread_name("main");
    return out;
  }
};

/// Wall-clock helper so benches can report/export elapsed time; the gauge
/// lands in --metrics-out (stdout stays byte-identical across --threads).
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  /// Records the elapsed time as the `bench_wall_ms` gauge.
  void export_gauge(const std::string& bench_name) const {
    obs::Registry::global()
        .gauge("bench_wall_ms", {{"bench", bench_name}})
        .set(elapsed_ms());
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Dumps the process-wide metric registry as JSONL when --metrics-out was
/// given. Call once at the end of main, after the workload ran.
inline void export_metrics(const CommonFlags& flags) {
  if (flags.metrics_out.empty()) return;
  if (obs::write_jsonl_file(obs::Registry::global(), flags.metrics_out)) {
    std::cout << "metrics: " << obs::Registry::global().size()
              << " series written to " << flags.metrics_out << "\n";
  } else {
    std::cerr << "cannot write metrics to " << flags.metrics_out << "\n";
  }
}

/// Dumps the process-wide flight recorder as Chrome Trace Event JSON when
/// --trace-out was given. Call at the end of main.
inline void export_trace(const CommonFlags& flags) {
  if (flags.trace_out.empty()) return;
  std::ofstream out(flags.trace_out);
  if (!out) {
    std::cerr << "cannot write trace to " << flags.trace_out << "\n";
    return;
  }
  obs::Recorder& recorder = obs::Recorder::global();
  recorder.write_chrome_trace(out);
  std::cout << "trace: " << recorder.trace_size() << " events ("
            << recorder.ring_dropped_total() << " dropped, "
            << recorder.trace_evicted_total() << " evicted) written to "
            << flags.trace_out << "\n";
}

}  // namespace harvest::bench
