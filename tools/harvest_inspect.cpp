// harvest_inspect — command-line harvesting of a log file (text or HLOG).
//
// Point it at any log in the key=value record format — a binary HLOG
// corpus produced by harvest_compact, or a partitioned dataset directory
// (MANIFEST.json + part files) — and it will:
//   1. parse the file (reporting torn/malformed lines), or mmap-scan the
//      HLOG blocks (reporting CRC-quarantined ones),
//   2. scavenge ⟨context, action, reward⟩ tuples per your field spec,
//   3. infer propensities from the action frequencies (step 2),
//   4. report the harvested exploration quality: min propensity, Eq. 1
//      optimization potential, per-action estimates, and the offline value
//      of a CB policy trained on half the data and IPS-evaluated on the
//      other half.
//
// Usage:
//   harvest_inspect <logfile|dataset-dir> --event decide --context x,y
//                   --action a --reward r --actions 3
//                   [--reward-lo 0 --reward-hi 1]
//                   [--format auto|text|hlog] [--diagnostics]
//                   [--min-time T] [--max-time T] [--only-action A]
//                   [--trace trace.json] [--inject SPEC] [--inject-seed N]
//   harvest_inspect --selftest        # generate and process a demo log
//
// --format selects the input decoding; `auto` (the default) sniffs the HLOG
//   magic bytes of files and recognizes dataset directories by their
//   MANIFEST.json. HLOG corpora are self-describing, so the field-spec flags
//   (--event/--context/...) may be omitted — they default to the schema the
//   corpus was compacted under. --inject is text-only (corrupt HLOG blocks
//   at compaction time with harvest_compact --corrupt-blocks instead).
//
// --min-time/--max-time/--only-action/--min-propensity/--max-propensity
//   push a scan predicate down to the zone-mapped binary scan: blocks whose
//   zone maps cannot match are skipped without touching their bytes, and a
//   pruning summary (blocks pruned vs scanned) is printed. Binary inputs
//   only — text logs have no zone maps. The propensity bounds select
//   exploration strata (e.g. --max-propensity 0.1 keeps only the rare
//   low-propensity exploration draws).
//
// --diagnostics prints the OPE-health panel: effective sample size,
//   min propensity, importance-weight tails, and the logging-vs-evaluation
//   context-drift statistic (the A1 stationarity check).
// --trace FILE writes the flight-recorder trace covering every pipeline
//   stage that ran, as Chrome Trace Event JSON (chrome://tracing, Perfetto,
//   tools/harvest_trace): stage spans with their parent/child nesting plus
//   the worker-thread and store/pool events.
// --inject SPEC corrupts the log text before ingestion with the
//   seed-deterministic fault injector (e.g. "torn=0.05,dup=0.02,bad-p=0.01";
//   see src/fault/fault_spec.h for the taxonomy) — a chaos rehearsal of the
//   hardened read path. --inject-seed makes the corrupted corpus
//   reproducible (default 1).
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include "harvest/harvest.h"
#include "util/flags.h"

namespace {

using namespace harvest;

int usage() {
  std::cerr
      << "usage: harvest_inspect <logfile|dataset-dir> --event EV\n"
         "                       --context F1,F2,... --action FIELD\n"
         "                       --reward FIELD --actions N\n"
         "                       [--reward-lo X] [--reward-hi Y]\n"
         "                       [--format auto|text|hlog]\n"
         "                       [--min-time T] [--max-time T]\n"
         "                       [--only-action A]\n"
         "                       [--min-propensity P] [--max-propensity P]\n"
         "                       [--diagnostics] [--trace FILE]\n"
         "                       [--inject SPEC] [--inject-seed N]\n"
         "       harvest_inspect --selftest [--diagnostics] [--trace FILE]\n"
         "(HLOG inputs are self-describing: the field-spec flags default\n"
         " to the schema stored in the corpus)\n";
  return 2;
}

/// Writes a demo log (a randomized 3-action system) to a stringstream.
std::string make_demo_log() {
  util::Rng rng(123);
  logs::LogStore log;
  for (int i = 0; i < 4000; ++i) {
    const double load = rng.uniform(0.0, 10.0);
    const auto action = static_cast<core::ActionId>(rng.uniform_index(3));
    const double reward =
        0.5 + 0.04 * static_cast<double>(action) * (load - 5.0) +
        rng.normal(0.0, 0.05);
    logs::Record rec;
    rec.time = i * 0.5;
    rec.event = "decide";
    rec.set("load", load);
    rec.set("choice", static_cast<std::int64_t>(action));
    rec.set("reward", reward);
    log.append(std::move(rec));
  }
  std::ostringstream out;
  log.write_text(out);
  return out.str();
}

std::string ci_string(const core::Estimate& est) {
  return "[" + util::format_double(est.normal_ci.lo, 4) + ", " +
         util::format_double(est.normal_ci.hi, 4) + "]";
}

/// The --diagnostics panel: estimator-internal health of the harvested log.
void print_diagnostics(const pipeline::HarvestReport& report) {
  const obs::OpeDiagnostics& d = report.logging_diagnostics;
  std::cout << "\n== OPE-health diagnostics ==\n";
  std::cout << "effective sample size (ESS): "
            << util::format_double(d.ess, 1) << " ("
            << util::format_double(100 * d.ess_fraction, 1) << "% of n="
            << d.n << ")\n";
  std::cout << "min propensity:              "
            << util::format_double(d.min_propensity, 4) << "\n";
  std::cout << "max importance weight:       "
            << util::format_double(d.max_weight, 2) << " (mean "
            << util::format_double(d.mean_weight, 2) << ", clipped@"
            << util::format_double(d.clip_weight, 0) << ": "
            << util::format_double(100 * d.clipped_fraction, 2) << "%)\n";
  if (report.decisions_dropped > 0) {
    std::cout << "quarantined decisions:       " << report.decisions_dropped
              << " of " << report.decisions_seen << " ("
              << util::format_double(100 * report.quarantine_rate, 1)
              << "%)\n";
  }
  if (!report.drift.features.empty()) {
    std::cout << "context drift (A1 check):    max |z| = "
              << util::format_double(report.drift.max_z, 2) << " on feature "
              << report.drift.max_feature
              << (report.warnings.empty() ? " — healthy\n" : "\n");
  }
  obs::print_warnings(std::cout, "inspect", report.warnings);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const bool diagnostics = flags.get_bool("diagnostics", false);
  const std::string trace_path = flags.get_string("trace", "");
  // --threads N parallelizes the pipeline's estimator/training stages;
  // output is bit-identical for any value (see src/par/par.h).
  par::set_default_threads(
      static_cast<std::size_t>(flags.get_int("threads", 1)));

  const std::string format_flag = flags.get_string("format", "auto");
  if (format_flag != "auto" && format_flag != "text" &&
      format_flag != "hlog") {
    std::cerr << "bad --format '" << format_flag
              << "' (want auto, text, or hlog)\n";
    return 2;
  }

  std::string text;
  logs::ScavengeSpec spec;
  spec.reward_transform = [](double r) { return r; };

  const bool selftest = flags.get_bool("selftest", false);
  std::string in_path;
  bool dataset_input = false;
  if (selftest) {
    text = make_demo_log();
    spec.decision_event = "decide";
    spec.context_fields = {"load"};
    spec.action_field = "choice";
    spec.reward_field = "reward";
    spec.num_actions = 3;
    spec.reward_range = {-0.5, 1.5};
  } else {
    if (flags.positional().empty()) return usage();
    in_path = flags.positional().front();
    // A dataset directory cannot be slurped — recognize it by its manifest
    // before touching the filesystem as a file.
    dataset_input = format_flag != "text" && store::is_dataset_dir(in_path);
    if (!dataset_input) {
      std::ifstream file(in_path, std::ios::binary);
      if (!file) {
        std::cerr << "cannot open " << in_path << "\n";
        return 1;
      }
      std::ostringstream buffer;
      buffer << file.rdbuf();
      text = buffer.str();
    }
  }

  const bool hlog =
      !selftest &&
      (dataset_input || format_flag == "hlog" ||
       (format_flag == "auto" && store::is_hlog(text)));

  // An HLOG corpus is self-describing, so the field-spec flags default to
  // its stored schema; a text log has no schema, so they are mandatory.
  std::optional<store::Reader> reader;
  std::optional<store::Dataset> dataset;
  if (hlog) {
    try {
      if (dataset_input) {
        dataset.emplace(store::Dataset::open(in_path));
      } else {
        reader.emplace(store::Reader::from_memory(std::move(text), in_path));
      }
    } catch (const std::exception& e) {
      std::cerr << "cannot read HLOG: " << e.what() << "\n";
      return 1;
    }
    spec = logs::spec_from_schema(dataset ? dataset->schema()
                                          : reader->schema());
  } else if (!selftest &&
             (!flags.has("event") || !flags.has("context") ||
              !flags.has("action") || !flags.has("reward") ||
              !flags.has("actions"))) {
    return usage();
  }
  if (!selftest) {
    spec.decision_event = flags.get_string("event", spec.decision_event);
    if (flags.has("context")) {
      const std::string context = flags.get_string("context", "");
      spec.context_fields.clear();
      for (const auto piece : util::split(context, ',')) {
        spec.context_fields.emplace_back(util::trim(piece));
      }
    }
    spec.action_field = flags.get_string("action", spec.action_field);
    spec.reward_field = flags.get_string("reward", spec.reward_field);
    spec.num_actions = static_cast<std::size_t>(flags.get_int(
        "actions", static_cast<std::int64_t>(spec.num_actions)));
    spec.reward_range = {flags.get_double("reward-lo", spec.reward_range.lo),
                         flags.get_double("reward-hi", spec.reward_range.hi)};
  }

  // Scan-predicate flags: pushed down to the zone-mapped binary scan.
  store::ScanPredicate predicate;
  if (flags.has("min-time")) {
    predicate.min_time = flags.get_double("min-time", predicate.min_time);
  }
  if (flags.has("max-time")) {
    predicate.max_time = flags.get_double("max-time", predicate.max_time);
  }
  if (flags.has("only-action")) {
    predicate.action =
        static_cast<std::uint32_t>(flags.get_int("only-action", 0));
  }
  if (flags.has("min-propensity")) {
    predicate.min_propensity =
        flags.get_double("min-propensity", predicate.min_propensity);
  }
  if (flags.has("max-propensity")) {
    predicate.max_propensity =
        flags.get_double("max-propensity", predicate.max_propensity);
  }
  if (predicate.min_propensity > predicate.max_propensity) {
    std::cerr << "--min-propensity must not exceed --max-propensity\n";
    return 2;
  }
  if (!predicate.trivial() && !hlog) {
    std::cerr << "--min-time/--max-time/--only-action/--min-propensity/"
                 "--max-propensity need a binary input (text logs have no "
                 "zone maps to prune against)\n";
    return 2;
  }

  // Optional chaos rehearsal: corrupt the wire-format text before the
  // hardened read path ever sees it.
  if (flags.has("inject") && hlog) {
    std::cerr << "--inject is text-only; corrupt HLOG blocks with "
                 "harvest_compact --corrupt-blocks instead\n";
    return 2;
  }
  if (flags.has("inject")) {
    try {
      const fault::FaultInjector injector(
          static_cast<std::uint64_t>(flags.get_int("inject-seed", 1)),
          fault::parse_fault_specs(flags.get_string("inject", "")));
      auto [corrupted, inj] = injector.inject_text(text);
      text = std::move(corrupted);
      std::cout << "injected faults (seed "
                << flags.get_int("inject-seed", 1) << "): " << inj.lines_in
                << " -> " << inj.lines_out << " lines; torn " << inj.torn
                << ", dup " << inj.duplicated << ", reordered "
                << inj.reordered << ", corrupted " << inj.corrupted
                << ", p-dropped " << inj.propensities_dropped
                << ", p-invalid " << inj.propensities_invalidated
                << ", t-skewed " << inj.timestamps_skewed << "\n";
    } catch (const std::exception& e) {
      std::cerr << "bad --inject spec: " << e.what() << "\n";
      return 2;
    }
  }

  // Step 0: parse (streaming text, bounded memory) or mmap-scan (HLOG).
  logs::LogStore log;
  if (dataset) {
    std::cout << "format: hlog dataset v" << store::kManifestVersion
              << " (hlog v" << store::kFormatVersion << ", "
              << dataset->manifest().shards.size() << " files, "
              << dataset->num_blocks() << " blocks, " << dataset->rows()
              << " rows, " << dataset->file_bytes() << " bytes)\n";
    for (std::size_t i = 0; i < dataset->manifest().shards.size(); ++i) {
      const store::ManifestShard& entry = dataset->manifest().shards[i];
      const store::Reader& part = dataset->readers()[i];
      std::cout << "  " << entry.file << ": " << part.rows() << " rows, "
                << part.shards().size() << " shards, " << part.num_blocks()
                << " blocks, " << part.file_bytes() << " bytes";
      if (part.counts().total_dropped() > 0) {
        std::cout << " (" << part.counts().total_dropped()
                  << " quarantined at compaction)";
      }
      std::cout << "\n";
    }
    if (dataset->rows() == 0) {
      std::cerr << "HLOG dataset holds no decision rows\n";
      return 1;
    }
  } else if (hlog) {
    std::cout << "format: hlog v" << store::kFormatVersion << " ("
              << reader->shards().size() << " shards, "
              << reader->num_blocks() << " blocks, " << reader->rows()
              << " rows, " << reader->file_bytes() << " bytes)\n";
    if (reader->rows() == 0) {
      std::cerr << "HLOG corpus holds no decision rows\n";
      return 1;
    }
  } else {
    std::cout << "format: text\n";
    std::istringstream stream(text);
    auto [parsed, read_stats] = logs::LogStore::read_text_chunked(stream);
    log = std::move(parsed);
    std::cout << "parsed " << log.size() << " records ("
              << read_stats.skipped() << " malformed lines skipped)\n";
    if (log.empty()) return 1;
  }

  // Steps 1-3 through the instrumented pipeline: scavenge, infer
  // propensities, evaluate every constant (per-action) policy.
  pipeline::PipelineConfig config;
  config.spec = spec;
  config.inference = std::make_shared<core::EmpiricalPropensityModel>(
      spec.num_actions, std::vector<std::size_t>{});
  config.estimator = std::make_shared<core::IpsEstimator>();
  config.obs_label = "inspect";
  config.diagnostics_warnings = false;  // surfaced via --diagnostics instead
  config.scan_predicate = predicate;

  std::vector<core::PolicyPtr> candidates;
  for (std::size_t a = 0; a < spec.num_actions; ++a) {
    candidates.push_back(std::make_shared<core::ConstantPolicy>(
        spec.num_actions, static_cast<core::ActionId>(a)));
  }

  core::ExplorationDataset data(spec.num_actions, spec.reward_range);
  pipeline::HarvestReport report;
  try {
    report = dataset ? pipeline::evaluate_candidates(*dataset, config,
                                                     candidates, &data)
             : hlog ? pipeline::evaluate_candidates(*reader, config,
                                                    candidates, &data)
                    : pipeline::evaluate_candidates(log, config, candidates,
                                                    &data);
  } catch (const std::exception& e) {
    std::cerr << "pipeline failed: " << e.what() << "\n";
    return 1;
  }
  std::cout << "decisions: " << report.records_seen << " records seen, "
            << "harvested " << report.decisions_harvested << " tuples, "
            << "dropped " << report.decisions_dropped << "\n";
  if (!predicate.trivial()) {
    // One-shot binary, so the global counters are exactly this scan.
    obs::Registry& registry = obs::Registry::global();
    const double pruned =
        registry.counter("store_blocks_pruned_total").value();
    const double touched =
        registry.counter("store_blocks_scanned_total").value();
    std::cout << "pruning: predicate [" << predicate.describe()
              << "] skipped " << static_cast<std::uint64_t>(pruned) << " of "
              << static_cast<std::uint64_t>(pruned + touched)
              << " blocks without touching their bytes\n";
  }
  if (report.decisions_dropped > 0) {
    std::cout << "quarantine: missing-field " << report.dropped_missing_fields
              << ", bad-action " << report.dropped_bad_action
              << ", bad-propensity " << report.dropped_bad_propensity
              << ", stale-timestamp " << report.dropped_stale_timestamp
              << ", corrupt-block " << report.dropped_corrupt_block
              << " (" << util::format_double(100 * report.quarantine_rate, 1)
              << "% of decisions)\n";
  }
  if (report.decisions_harvested < 50) {
    std::cerr << "not enough exploration data to analyze\n";
    return 1;
  }
  std::cout << "inferred propensity floor (epsilon): "
            << util::format_double(report.min_propensity, 4) << "\n";

  const core::BoundParams params;
  std::cout << "Eq. 1 width for evaluating 1e6 policies on this log: "
            << util::format_double(
                   core::cb_ci_width(static_cast<double>(data.size()), 1e6,
                                     report.min_propensity, params),
                   4)
            << "\n\n";

  // Step 3a: per-action (constant-policy) offline estimates.
  util::Table table({"policy", "IPS estimate", "95% CI", "ESS"});
  for (const auto& candidate : report.candidates) {
    table.add_row({candidate.policy_name,
                   util::format_double(candidate.estimate.value, 4),
                   ci_string(candidate.estimate),
                   util::format_double(candidate.diagnostics.ess, 0)});
  }

  // Step 3b: train on half, evaluate offline on the other half.
  {
    obs::ScopedSpan span("inspect.train_and_holdout");
    util::Rng rng(7);
    data.shuffle(rng);
    const auto [train, test] = data.split(0.5);
    const core::PolicyPtr cb = [&] {
      obs::ScopedSpan train_span("inspect.train_cb");
      return core::train_cb_policy(train, {});
    }();
    obs::ScopedSpan eval_span("inspect.holdout_estimate");
    const core::IpsEstimator ips;
    const core::Estimate cb_est = ips.evaluate(test, *cb);
    table.add_row({"trained CB policy", util::format_double(cb_est.value, 4),
                   ci_string(cb_est), util::format_double(cb_est.ess, 0)});
  }
  table.print(std::cout);

  if (diagnostics) print_diagnostics(report);

  std::cout << "\nThe CB policy's estimate comes from held-out data — if its "
               "CI clears the incumbents', it is deployable evidence.\n";

  if (!trace_path.empty()) {
    std::ofstream trace_file(trace_path);
    if (!trace_file) {
      std::cerr << "cannot write trace to " << trace_path << "\n";
      return 1;
    }
    obs::Recorder& recorder = obs::Recorder::global();
    recorder.write_chrome_trace(trace_file);
    std::cout << "trace: " << recorder.trace_size() << " events written to "
              << trace_path << "\n";
  }
  return 0;
}
