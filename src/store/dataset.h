// Partitioned HLOG datasets: a directory of shard files named by a
// versioned MANIFEST.json, so a corpus can grow past what one file (and one
// writer) comfortably holds while every consumer still sees a single
// logical store.
//
//   dataset/
//     MANIFEST.json         version, dataset ledger, per-shard rows+ledgers
//     part-00000.hlog       ordinary HLOG files (self-contained: schema,
//     part-00001.hlog       footer index, zone maps, dictionaries)
//     ...
//
// The manifest is the dataset's ledger of record:
//
//   {
//     "hlog_dataset": 1,
//     "counts": { ... dataset ingestion ledger (Counts) ... },
//     "shards": [
//       { "file": "part-00000.hlog", "counts": { ... that file's ledger } },
//       ...
//     ]
//   }
//
// Per-shard counts mirror each file's footer (cross-checked at open);
// the top-level counts carry ingestion drops that happened before
// partitioning, so `decisions_seen == rows + total_dropped()` reconciles
// for the dataset exactly as it does for a single file. The manifest is
// read with util::json, the repository's one strict JSON reader.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "par/parallel.h"
#include "store/format.h"
#include "store/reader.h"
#include "store/writer.h"

namespace harvest::store {

inline constexpr const char* kManifestFileName = "MANIFEST.json";
inline constexpr std::uint32_t kManifestVersion = 1;

/// One manifest entry: a shard file (path relative to the dataset dir) and
/// the ledger its footer carries.
struct ManifestShard {
  std::string file;
  Counts counts;
};

struct Manifest {
  std::uint32_t version = kManifestVersion;
  Counts counts;  ///< dataset-level ingestion ledger
  std::vector<ManifestShard> shards;

  std::string to_json() const;
  /// Throws std::runtime_error naming `origin` on malformed JSON, a missing
  /// field, or an unsupported version.
  static Manifest parse_json(std::string_view text, const std::string& origin);
};

/// True when `path` is a directory containing a MANIFEST.json — the
/// autodetection hook tools use to route a path to Dataset::open vs
/// Reader::open.
bool is_dataset_dir(const std::string& path);

/// A read handle over every shard of a partitioned dataset. Shards are
/// opened (and their schemas cross-checked) eagerly, so any unreadable or
/// mismatched member fails fast with its path in the error.
class Dataset {
 public:
  static Dataset open(const std::string& dir);

  const std::string& dir() const { return dir_; }
  const Manifest& manifest() const { return manifest_; }
  const std::vector<Reader>& readers() const { return readers_; }
  const Schema& schema() const { return schema_; }
  /// The dataset ledger (manifest top-level counts; rows == Σ shard rows).
  const Counts& totals() const { return manifest_.counts; }
  std::uint64_t rows() const { return manifest_.counts.rows; }
  std::size_t num_blocks() const;
  std::uint64_t file_bytes() const;

  /// Scans every shard in manifest order and concatenates the results
  /// (quarantine reports carry dataset-global shard/block indices).
  /// Deterministic for any pool, like Reader::scan.
  ScanResult scan(par::ThreadPool* pool = par::default_pool()) const;
  ScanResult scan(const ScanPredicate& predicate,
                  par::ThreadPool* pool = par::default_pool()) const;

 private:
  Dataset() = default;

  std::string dir_;
  Manifest manifest_;
  std::vector<Reader> readers_;
  Schema schema_;
};

/// Streams rows into a dataset directory, rotating part files every
/// `rows_per_file` rows and writing the manifest on finish(). Each part file
/// is an ordinary deterministic HLOG Writer product, so the whole dataset is
/// a pure function of (schema, options, row sequence, counts).
class DatasetWriter {
 public:
  /// Creates `dir` (and parents) if needed. At least one part file is always
  /// produced, so an empty dataset still records its schema.
  DatasetWriter(std::string dir, Schema schema, WriterOptions options = {},
                std::uint64_t rows_per_file = 1 << 20);
  ~DatasetWriter();
  DatasetWriter(const DatasetWriter&) = delete;
  DatasetWriter& operator=(const DatasetWriter&) = delete;

  void add(double time, std::span<const double> context, std::uint32_t action,
           double reward, double propensity);

  /// Records the dataset-level ingestion ledger (rows is filled in
  /// automatically; when never called, records/decisions default to the row
  /// count — the pass-through ledger of a drop-free ingest).
  void set_counts(const Counts& counts);

  /// Closes the open part file and writes MANIFEST.json. Idempotent.
  void finish();

  std::uint64_t rows_written() const { return rows_written_; }
  const Manifest& manifest() const { return manifest_; }

 private:
  void roll();
  void close_part();

  std::string dir_;
  Schema schema_;
  WriterOptions options_;
  std::uint64_t rows_per_file_;
  Counts counts_;
  bool have_counts_ = false;

  std::ofstream out_;
  std::unique_ptr<Writer> writer_;
  std::uint64_t part_rows_ = 0;
  std::uint64_t rows_written_ = 0;
  Manifest manifest_;
  bool finished_ = false;
};

}  // namespace harvest::store
