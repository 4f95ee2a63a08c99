// harvest_compact — compacts a text log into the HLOG binary columnar
// format, so every later run scans columns instead of re-parsing text.
//
// Compaction runs the exact scavenge validation the text read path uses
// (same spec, same quarantine classes); surviving decisions land in CRC-
// guarded column blocks with *raw* (pre-transform) values, and the footer
// persists the full ingestion ledger. Scavenging the output therefore
// reproduces the text path bit for bit — `--verify` proves it in-process.
//
// Usage:
//   harvest_compact <in.log> <out.hlog|out-dir> --event EV
//                   --context F1,F2,... --action FIELD --reward FIELD
//                   --actions N
//                   [--propensity FIELD] [--reward-lo X --reward-hi Y]
//                   [--stale-after S]
//                   [--rows-per-block N] [--blocks-per-shard N]
//                   [--partition-rows N]
//                   [--inject SPEC] [--inject-seed N]
//                   [--corrupt-blocks FRAC] [--corrupt-seed N]
//                   [--verify] [--threads N]
//   harvest_compact --merge <out.hlog> <in...>
//                   [--rows-per-block N] [--blocks-per-shard N] [--threads N]
//                   [--min-time T] [--max-time T] [--only-action A]
//                   [--min-propensity P] [--max-propensity P]
//   harvest_compact --corrupt <path> --corrupt-blocks FRAC
//                   [--corrupt-seed N] [--corrupt-shard FILE]
//   harvest_compact --make-demo <out.log> [--demo-records N] [--demo-seed N]
//
// --partition-rows writes a partitioned dataset directory (MANIFEST.json +
//   part files rotated every N rows) instead of one .hlog file.
// --merge folds many HLOG inputs (files and/or dataset directories, whose
//   members are expanded in manifest order) into one output file on the
//   thread pool — bit-deterministic at any --threads, and the
//   quarantine ledger is conserved exactly (rows lost to CRC damage while
//   reading the inputs move into dropped_corrupt_block). The scan-predicate
//   flags (--min-time/--max-time/--only-action/--min-propensity/
//   --max-propensity) turn the merge into a selection: the inputs' zone
//   maps prune non-matching blocks without touching their bytes, decoded
//   blocks are row-filtered, and only matching rows are re-encoded — e.g.
//   --max-propensity 0.1 extracts the low-propensity exploration stratum
//   into its own corpus. Conservation then reads
//   input == kept + quarantined + filtered.
// --corrupt is the standalone chaos mode: flips one byte in the given
//   fraction of column blocks of a .hlog file, or — with --corrupt-shard —
//   of one named member of a dataset directory.
// --inject corrupts the *text* before compaction with the seed-
//   deterministic fault::FaultInjector (the compactor's quarantine ledger
//   then records what the faults cost). --corrupt-blocks flips one byte in
//   the given fraction of the *output's* column blocks, deterministically
//   per --corrupt-seed — the chaos fixture for the reader's CRC quarantine
//   path. The two compose; --verify refuses to run on a corrupted output.
// --make-demo writes the standard 3-action demo corpus (event=decide,
//   context=load, action=choice, reward=reward) used by the selftests, CI,
//   and the ingestion bench.
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "harvest/harvest.h"
#include "store/compactor.h"
#include "store/dataset.h"
#include "util/flags.h"

namespace {

using namespace harvest;

int usage() {
  std::cerr
      << "usage: harvest_compact <in.log> <out.hlog|out-dir> --event EV\n"
         "                       --context F1,F2,... --action FIELD\n"
         "                       --reward FIELD --actions N\n"
         "                       [--propensity FIELD]\n"
         "                       [--reward-lo X --reward-hi Y]\n"
         "                       [--stale-after S]\n"
         "                       [--rows-per-block N] [--blocks-per-shard N]\n"
         "                       [--partition-rows N]\n"
         "                       [--inject SPEC] [--inject-seed N]\n"
         "                       [--corrupt-blocks FRAC] [--corrupt-seed N]\n"
         "                       [--verify] [--threads N]\n"
         "       harvest_compact --merge <out.hlog> <in...>\n"
         "                       [--rows-per-block N] [--blocks-per-shard N]\n"
         "                       [--threads N]\n"
         "                       [--min-time T] [--max-time T]\n"
         "                       [--only-action A]\n"
         "                       [--min-propensity P] [--max-propensity P]\n"
         "       harvest_compact --corrupt <path> --corrupt-blocks FRAC\n"
         "                       [--corrupt-seed N] [--corrupt-shard FILE]\n"
         "       harvest_compact --make-demo <out.log> [--demo-records N]\n"
         "                       [--demo-seed N]\n";
  return 2;
}

/// The demo corpus shared with harvest_inspect --selftest: a randomized
/// 3-action system whose reward depends on (load, action).
void write_demo_log(std::ostream& out, std::size_t records,
                    std::uint64_t seed) {
  util::Rng rng(seed);
  logs::LogStore log;
  for (std::size_t i = 0; i < records; ++i) {
    const double load = rng.uniform(0.0, 10.0);
    const auto action = static_cast<core::ActionId>(rng.uniform_index(3));
    const double reward =
        0.5 + 0.04 * static_cast<double>(action) * (load - 5.0) +
        rng.normal(0.0, 0.05);
    logs::Record rec;
    rec.time = static_cast<double>(i) * 0.5;
    rec.event = "decide";
    rec.set("load", load);
    rec.set("choice", static_cast<std::int64_t>(action));
    rec.set("reward", reward);
    log.append(std::move(rec));
  }
  log.write_text(out);
}

/// Bitwise dataset comparison — the acceptance bar for text-vs-HLOG
/// identity (no epsilon: the store must preserve every bit).
bool identical(const core::ExplorationDataset& a,
               const core::ExplorationDataset& b) {
  if (a.size() != b.size() || a.num_actions() != b.num_actions()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const core::ExplorationPoint& pa = a[i];
    const core::ExplorationPoint& pb = b[i];
    if (pa.action != pb.action ||
        std::memcmp(&pa.reward, &pb.reward, sizeof(double)) != 0 ||
        std::memcmp(&pa.propensity, &pb.propensity, sizeof(double)) != 0 ||
        pa.context.size() != pb.context.size()) {
      return false;
    }
    for (std::size_t f = 0; f < pa.context.size(); ++f) {
      const double fa = pa.context[f];
      const double fb = pb.context[f];
      if (std::memcmp(&fa, &fb, sizeof(double)) != 0) return false;
    }
  }
  return true;
}

std::string slurp_or_die(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    std::cerr << "cannot open " << path << "\n";
    std::exit(1);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

void write_or_die(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    std::exit(1);
  }
}

store::WriterOptions options_from(const util::Flags& flags) {
  store::WriterOptions options;
  options.rows_per_block = static_cast<std::size_t>(
      flags.get_int("rows-per-block", 4096));
  options.blocks_per_shard = static_cast<std::size_t>(
      flags.get_int("blocks-per-shard", 8));
  options.max_dict_entries = static_cast<std::size_t>(
      flags.get_int("max-dict-entries", 256));
  return options;
}

/// Builds the merge selection predicate from the scan-predicate flags
/// (trivial when none are given). Exits with usage() on inverted bounds.
store::ScanPredicate predicate_from(const util::Flags& flags) {
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
  if (predicate.min_time > predicate.max_time ||
      predicate.min_propensity > predicate.max_propensity) {
    std::cerr << "empty scan predicate: min bound exceeds max bound\n";
    std::exit(2);
  }
  return predicate;
}

/// Merge mode: fold files and/or dataset directories into one HLOG file.
int run_merge(const util::Flags& flags) {
  // Flag parsing folds "--merge out.hlog" into the flag's value; the output
  // may land there or be the first positional.
  std::string out_path = flags.get_string("merge", "");
  std::vector<std::string> input_paths = flags.positional();
  if (out_path.empty() || out_path == "true") {
    if (input_paths.empty()) return usage();
    out_path = input_paths.front();
    input_paths.erase(input_paths.begin());
  }
  if (input_paths.empty()) return usage();

  // Open every input (expanding dataset directories in manifest order);
  // the containers keep the readers alive across the merge.
  std::vector<std::unique_ptr<store::Reader>> files;
  std::vector<std::unique_ptr<store::Dataset>> datasets;
  std::vector<const store::Reader*> inputs;
  for (const std::string& path : input_paths) {
    try {
      if (store::is_dataset_dir(path)) {
        datasets.push_back(
            std::make_unique<store::Dataset>(store::Dataset::open(path)));
        for (const store::Reader& reader : datasets.back()->readers()) {
          inputs.push_back(&reader);
        }
      } else {
        files.push_back(
            std::make_unique<store::Reader>(store::Reader::open(path)));
        inputs.push_back(files.back().get());
      }
    } catch (const std::exception& e) {
      std::cerr << "cannot open input: " << e.what() << "\n";
      return 1;
    }
  }

  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  const store::ScanPredicate predicate = predicate_from(flags);
  const store::MergeReport report = [&] {
    try {
      return store::merge_readers(inputs, out, options_from(flags),
                                  par::default_pool(), predicate);
    } catch (const std::exception& e) {
      std::cerr << "merge failed: " << e.what() << "\n";
      std::exit(1);
    }
  }();
  out.close();

  std::cout << "merged " << inputs.size() << " inputs ("
            << report.input_totals.rows << " ledgered rows) -> " << out_path
            << ": " << report.rows_kept << " rows in "
            << report.output_shards << " shards / " << report.output_blocks
            << " blocks";
  if (report.rows_quarantined > 0) {
    std::cout << "; " << report.rows_quarantined
              << " rows quarantined at merge time (now ledgered as "
                 "corrupt_block)";
  }
  std::cout << "\n";
  if (!predicate.trivial()) {
    std::cout << "selection: predicate [" << predicate.describe()
              << "] filtered " << report.rows_filtered << " rows ("
              << report.blocks_pruned << " blocks pruned via zone maps)\n";
  }
  std::cout << "conservation: input kept+quarantined "
            << report.input_totals.rows << " == output kept "
            << report.output.rows << " + newly quarantined "
            << report.rows_quarantined
            << (predicate.trivial()
                    ? std::string()
                    : " + filtered " + std::to_string(report.rows_filtered))
            << ": " << (report.conserved() ? "OK" : "VIOLATED") << "\n";
  return report.conserved() ? 0 : 1;
}

/// Standalone chaos mode: corrupt blocks of a .hlog file or of one named
/// member of a dataset directory.
int run_corrupt(const util::Flags& flags) {
  std::string target = flags.get_string("corrupt", "");
  if (target.empty() || target == "true") {
    if (flags.positional().empty()) return usage();
    target = flags.positional().front();
  }
  const double fraction = flags.get_double("corrupt-blocks", 0.0);
  if (fraction <= 0) {
    std::cerr << "--corrupt needs --corrupt-blocks FRAC > 0\n";
    return 2;
  }
  if (store::is_dataset_dir(target)) {
    const std::string shard = flags.get_string("corrupt-shard", "");
    if (shard.empty()) {
      std::cerr << target << " is a dataset; pick a member with "
                   "--corrupt-shard FILE:\n";
      try {
        const store::Dataset dataset = store::Dataset::open(target);
        for (const auto& entry : dataset.manifest().shards) {
          std::cerr << "  " << entry.file << " (" << entry.counts.rows
                    << " rows)\n";
        }
      } catch (const std::exception& e) {
        std::cerr << "  (unreadable: " << e.what() << ")\n";
      }
      return 2;
    }
    target = (std::filesystem::path(target) / shard).string();
  }
  std::string bytes = slurp_or_die(target);
  if (!store::is_hlog(bytes)) {
    std::cerr << target << " is not HLOG\n";
    return 1;
  }
  const auto seed = static_cast<std::uint64_t>(flags.get_int("corrupt-seed", 1));
  const auto report = store::corrupt_blocks(bytes, seed, fraction);
  write_or_die(target, bytes);
  std::cout << "corrupted " << report.blocks_corrupted << " of "
            << report.blocks_total << " blocks (" << report.rows_affected
            << " rows, seed " << seed << ") in " << target << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  par::set_default_threads(
      static_cast<std::size_t>(flags.get_int("threads", 1)));

  if (flags.has("make-demo")) {
    // Flag parsing folds "--make-demo out.log" into the flag's value;
    // accept the path there or as a positional.
    std::string demo_path = flags.get_string("make-demo", "");
    if (demo_path.empty() || demo_path == "true") {
      if (flags.positional().empty()) return usage();
      demo_path = flags.positional().front();
    }
    std::ofstream out(demo_path);
    if (!out) {
      std::cerr << "cannot write " << demo_path << "\n";
      return 1;
    }
    const auto records = static_cast<std::size_t>(
        flags.get_int("demo-records", 20000));
    write_demo_log(out, records,
                   static_cast<std::uint64_t>(flags.get_int("demo-seed", 123)));
    std::cout << "demo corpus: " << records << " records -> " << demo_path
              << "\n";
    return 0;
  }

  if (flags.has("merge")) return run_merge(flags);
  if (flags.has("corrupt")) return run_corrupt(flags);

  if (flags.positional().size() < 2 || !flags.has("event") ||
      !flags.has("context") || !flags.has("action") || !flags.has("reward") ||
      !flags.has("actions")) {
    return usage();
  }
  const std::string in_path = flags.positional()[0];
  const std::string out_path = flags.positional()[1];

  logs::ScavengeSpec spec;
  spec.decision_event = flags.get_string("event", "");
  const std::string context = flags.get_string("context", "");
  for (const auto piece : util::split(context, ',')) {
    spec.context_fields.emplace_back(util::trim(piece));
  }
  spec.action_field = flags.get_string("action", "");
  spec.reward_field = flags.get_string("reward", "");
  spec.propensity_field = flags.get_string("propensity", "");
  spec.num_actions = static_cast<std::size_t>(flags.get_int("actions", 0));
  spec.reward_range = {flags.get_double("reward-lo", 0.0),
                       flags.get_double("reward-hi", 1.0)};
  spec.stale_after_seconds = flags.get_double("stale-after", 0.0);
  // HLOG stores raw values; consumers apply their own transform at scan
  // time, exactly as they would over text.
  spec.reward_transform = [](double r) { return r; };

  std::string text;
  {
    std::ifstream file(in_path, std::ios::binary);
    if (!file) {
      std::cerr << "cannot open " << in_path << "\n";
      return 1;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    text = buffer.str();
  }
  if (store::is_hlog(text)) {
    std::cerr << in_path << " is already HLOG (use --merge to re-pack)\n";
    return 1;
  }

  // Optional pre-compaction chaos: the same deterministic text faults the
  // hardened read path is tested under.
  if (flags.has("inject") && !flags.get_string("inject", "").empty()) {
    try {
      const fault::FaultInjector injector(
          static_cast<std::uint64_t>(flags.get_int("inject-seed", 1)),
          fault::parse_fault_specs(flags.get_string("inject", "")));
      auto [corrupted, inj] = injector.inject_text(text);
      text = std::move(corrupted);
      std::cout << "injected text faults (seed "
                << flags.get_int("inject-seed", 1) << "): " << inj.lines_in
                << " -> " << inj.lines_out << " lines, "
                << inj.total_mutations() << " mutations\n";
    } catch (const std::exception& e) {
      std::cerr << "bad --inject spec: " << e.what() << "\n";
      return 2;
    }
  }

  obs::ScopedSpan root("compact.run");
  std::istringstream stream(text);
  const auto [log, read_stats] = logs::LogStore::read_text_chunked(stream);
  std::cout << "parsed " << log.size() << " records ("
            << read_stats.skipped() << " malformed lines skipped)\n";

  store::Schema schema;
  schema.decision_event = spec.decision_event;
  schema.context_fields = spec.context_fields;
  schema.action_field = spec.action_field;
  schema.reward_field = spec.reward_field;
  schema.propensity_field = spec.propensity_field;
  schema.stale_after_seconds = spec.stale_after_seconds;
  schema.reward_lo = spec.reward_range.lo;
  schema.reward_hi = spec.reward_range.hi;
  schema.num_actions = static_cast<std::uint32_t>(spec.num_actions);

  const store::WriterOptions options = options_from(flags);
  const auto partition_rows =
      static_cast<std::uint64_t>(flags.get_int("partition-rows", 0));

  logs::ScavengeResult scavenged{
      core::ExplorationDataset(spec.num_actions, spec.reward_range)};
  {
    obs::ScopedSpan span("compact.write");
    logs::ScavengeSpec compact_spec = spec;
    const auto run_scavenge = [&](auto& writer) -> bool {
      compact_spec.on_harvest = [&](const logs::Record& rec,
                                    const core::ExplorationPoint& point) {
        writer.add(rec.time, point.context.values(), point.action,
                   point.reward, point.propensity);
      };
      try {
        scavenged = logs::scavenge(log, compact_spec);
      } catch (const std::exception& e) {
        std::cerr << "scavenge failed: " << e.what() << "\n";
        return false;
      }
      store::Counts counts;
      counts.records_seen = scavenged.records_seen;
      counts.decisions_seen = scavenged.decisions_seen;
      counts.dropped_missing_fields = scavenged.dropped_missing_fields;
      counts.dropped_bad_action = scavenged.dropped_bad_action;
      counts.dropped_bad_propensity = scavenged.dropped_bad_propensity;
      counts.dropped_stale_timestamp = scavenged.dropped_stale_timestamp;
      writer.set_counts(counts);
      writer.finish();
      return true;
    };
    if (partition_rows > 0) {
      try {
        store::DatasetWriter writer(out_path, schema, options, partition_rows);
        if (!run_scavenge(writer)) return 1;
      } catch (const std::exception& e) {
        std::cerr << "cannot write dataset " << out_path << ": " << e.what()
                  << "\n";
        return 1;
      }
    } else {
      std::ofstream out(out_path, std::ios::binary);
      if (!out) {
        std::cerr << "cannot write " << out_path << "\n";
        return 1;
      }
      store::Writer writer(out, schema, options);
      if (!run_scavenge(writer)) return 1;
    }
  }

  // Optional post-write chaos: deterministic block corruption, the fixture
  // for the reader's CRC quarantine path (single-file output; datasets use
  // the standalone --corrupt mode with --corrupt-shard).
  const double corrupt_fraction = flags.get_double("corrupt-blocks", 0.0);
  if (corrupt_fraction > 0) {
    if (partition_rows > 0) {
      std::cerr << "--corrupt-blocks does not apply to --partition-rows "
                   "output; use --corrupt <dir> --corrupt-shard FILE\n";
      return 2;
    }
    std::string bytes = slurp_or_die(out_path);
    const auto report = store::corrupt_blocks(
        bytes, static_cast<std::uint64_t>(flags.get_int("corrupt-seed", 1)),
        corrupt_fraction);
    write_or_die(out_path, bytes);
    std::cout << "corrupted " << report.blocks_corrupted << " of "
              << report.blocks_total << " blocks (" << report.rows_affected
              << " rows, seed " << flags.get_int("corrupt-seed", 1) << ")\n";
  }

  // Re-open what was written and summarize it.
  std::unique_ptr<store::Reader> reader;
  std::unique_ptr<store::Dataset> dataset;
  std::uint64_t out_rows = 0;
  std::size_t out_shards = 0;
  std::size_t out_blocks = 0;
  std::uint64_t out_bytes = 0;
  try {
    if (partition_rows > 0) {
      dataset =
          std::make_unique<store::Dataset>(store::Dataset::open(out_path));
      out_rows = dataset->rows();
      for (const store::Reader& r : dataset->readers()) {
        out_shards += r.shards().size();
      }
      out_blocks = dataset->num_blocks();
      out_bytes = dataset->file_bytes();
    } else {
      reader = std::make_unique<store::Reader>(store::Reader::open(out_path));
      out_rows = reader->rows();
      out_shards = reader->shards().size();
      out_blocks = reader->num_blocks();
      out_bytes = reader->file_bytes();
    }
  } catch (const std::exception& e) {
    std::cerr << "cannot re-open output: " << e.what() << "\n";
    return 1;
  }
  std::cout << "compacted " << out_rows << " of " << scavenged.decisions_seen
            << " decisions (" << scavenged.total_dropped()
            << " quarantined) into ";
  if (dataset) {
    std::cout << dataset->manifest().shards.size() << " files / ";
  }
  std::cout << out_shards << " shards / " << out_blocks << " blocks, "
            << out_bytes << " bytes ("
            << util::format_double(
                   text.empty() ? 0.0
                                : static_cast<double>(out_bytes) /
                                      static_cast<double>(text.size()),
                   3)
            << "x of text)\n";

  if (flags.get_bool("verify", false)) {
    if (corrupt_fraction > 0) {
      std::cerr << "--verify cannot follow --corrupt-blocks (the output is "
                   "deliberately damaged)\n";
      return 2;
    }
    obs::ScopedSpan span("compact.verify");
    const logs::ScavengeResult from_text = logs::scavenge(log, spec);
    const logs::ScavengeResult from_hlog =
        dataset ? logs::scavenge(*dataset, spec)
                : logs::scavenge(*reader, spec);
    const bool counters_match =
        from_text.records_seen == from_hlog.records_seen &&
        from_text.decisions_seen == from_hlog.decisions_seen &&
        from_text.dropped_missing_fields == from_hlog.dropped_missing_fields &&
        from_text.dropped_bad_action == from_hlog.dropped_bad_action &&
        from_text.dropped_bad_propensity ==
            from_hlog.dropped_bad_propensity &&
        from_text.dropped_stale_timestamp ==
            from_hlog.dropped_stale_timestamp &&
        from_hlog.dropped_corrupt_block == 0;
    if (!counters_match || !identical(from_text.data, from_hlog.data)) {
      std::cerr << "VERIFY FAILED: HLOG scavenge differs from text scavenge\n";
      return 1;
    }
    std::cout << "verify: text and HLOG scavenge are bit-identical ("
              << from_text.data.size() << " tuples, "
              << flags.get_int("threads", 1) << " threads)\n";
  }
  return 0;
}
