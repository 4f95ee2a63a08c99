// roundbench: the round-ledger benchmark driver.
//
//   roundbench --workload loop-narrow|serve-live|ope-replay --seed N
//              --seconds S --trace 0|1 --workdir DIR [--trace-out FILE]
//              [--break CHECK]
//
// Prints the run's report, then as its last line one JSON object with the
// keys correct, attempted, failed and metrics (end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1). Exits 0 only when every
// output check held; 1 on a failed check or error; 2 on a usage error.
// roundbench/run.py builds this binary and is the command BENCHMARK.json
// names.
#include <malloc.h>

#include <cstdio>
#include <exception>
#include <filesystem>
#include <limits>
#include <map>
#include <string>

#include "util/flags.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace roundbench;
  const harvest::util::Flags flags(argc, argv);
  const std::string workload = flags.get_string("workload", "");
  Options opt;
  opt.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  opt.seconds = flags.get_double("seconds", 10);
  opt.traced = flags.get_int("trace", 0) != 0;
  opt.workdir = flags.get_string("workdir", "");
  opt.trace_out = flags.get_string("trace-out", "");
  opt.break_check = flags.get_string("break", "");

  Result (*run)(const Options&) = nullptr;
  if (workload == "loop-narrow") run = run_loop_narrow;
  if (workload == "serve-live") run = run_serve_live;
  if (workload == "ope-replay") run = run_ope_replay;
  // Each --break names one output check of one workload.
  const std::map<std::string, std::string> breakable = {
      {"drop-record", "loop-narrow"},
      {"unpublished-id", "serve-live"},
      {"perturb-estimate", "ope-replay"},
      {"window-row", "ope-replay"}};
  const auto broken = breakable.find(opt.break_check);
  const bool break_ok = opt.break_check.empty() ||
                        (broken != breakable.end() && broken->second == workload);
  if (run == nullptr || opt.workdir.empty() || !(opt.seconds >= 1) ||
      !break_ok) {
    std::fprintf(stderr,
                 "usage: roundbench --workload loop-narrow|serve-live|"
                 "ope-replay --seed N --seconds S (>= 1) --trace 0|1 "
                 "--workdir DIR [--trace-out FILE] [--break CHECK]\n"
                 "  CHECK: drop-record (loop-narrow), unpublished-id "
                 "(serve-live), perturb-estimate|window-row (ope-replay)\n");
    return 2;
  }

  // Keep freed heap memory mapped, as a long-running service's heap is after
  // warm-up: by default glibc returns every block of 128 KiB or more to the
  // kernel on free, so every round re-faulted its buffers (~200 MB a round
  // at 1M decisions). Page faults then took a quarter of the process's CPU
  // time, and were the part of a round that varied most with the host's
  // memory load.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());

  Result result;
  try {
    std::filesystem::create_directories(opt.workdir);
    result = run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "roundbench: %s: %s\n", workload.c_str(), e.what());
    return 1;
  }
  for (const std::string& v : result.violations) {
    std::fprintf(stderr, "roundbench: check failed: %s\n", v.c_str());
  }
  std::printf("%s\n", result.to_json().c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
