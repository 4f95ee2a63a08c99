#include "store/dataset.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <utility>

#include "util/json.h"

namespace harvest::store {

namespace {

[[noreturn]] void fail(const std::string& origin, const std::string& what) {
  throw std::runtime_error("hlog dataset: " + origin + ": " + what);
}

std::uint64_t require_uint(const util::json::Value& obj, std::string_view key,
                           const std::string& origin) {
  const util::json::Value* v = obj.find(key);
  const std::optional<std::uint64_t> n =
      v != nullptr ? v->as_uint64() : std::nullopt;
  if (!n) fail(origin, "missing numeric field \"" + std::string(key) + "\"");
  return *n;
}

/// The ledger fields, in the order the manifest writes them.
constexpr std::pair<const char*, std::uint64_t Counts::*> kCountFields[] = {
    {"records_seen", &Counts::records_seen},
    {"decisions_seen", &Counts::decisions_seen},
    {"dropped_missing_fields", &Counts::dropped_missing_fields},
    {"dropped_bad_action", &Counts::dropped_bad_action},
    {"dropped_bad_propensity", &Counts::dropped_bad_propensity},
    {"dropped_stale_timestamp", &Counts::dropped_stale_timestamp},
    {"dropped_corrupt_block", &Counts::dropped_corrupt_block},
    {"rows", &Counts::rows},
};

Counts parse_counts(const util::json::Value& obj, const std::string& origin) {
  Counts c;
  for (const auto& [name, field] : kCountFields) {
    c.*field = require_uint(obj, name, origin);
  }
  return c;
}

void append_counts(std::string& out, const Counts& c,
                   const std::string& indent) {
  out += "{\n";
  for (const auto& [name, field] : kCountFields) {
    out += indent + "  \"" + name + "\": " + std::to_string(c.*field) +
           (field == &Counts::rows ? "\n" : ",\n");
  }
  out += indent + "}";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail(path, "cannot open");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text;
}

}  // namespace

std::string Manifest::to_json() const {
  std::string out;
  out += "{\n";
  out += "  \"hlog_dataset\": " + std::to_string(version) + ",\n";
  out += "  \"counts\": ";
  append_counts(out, counts, "  ");
  out += ",\n  \"shards\": [";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    {\n      \"file\": \"" + util::json::escape(shards[i].file);
    out += "\",\n      \"counts\": ";
    append_counts(out, shards[i].counts, "      ");
    out += "\n    }";
  }
  out += shards.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

Manifest Manifest::parse_json(std::string_view text,
                              const std::string& origin) {
  util::json::Value root;
  try {
    root = util::json::parse(text, origin);
  } catch (const util::json::Error& e) {
    fail(origin, e.detail());
  }
  if (root.as_object() == nullptr) fail(origin, "manifest is not an object");

  Manifest manifest;
  const std::uint64_t version = require_uint(root, "hlog_dataset", origin);
  if (version != kManifestVersion) {
    fail(origin, "unsupported dataset version " + std::to_string(version));
  }
  manifest.version = static_cast<std::uint32_t>(version);

  const util::json::Value* counts = root.find("counts");
  if (counts == nullptr || counts->as_object() == nullptr) {
    fail(origin, "missing \"counts\" object");
  }
  manifest.counts = parse_counts(*counts, origin);

  const util::json::Value* shards = root.find("shards");
  if (shards == nullptr || shards->as_array() == nullptr) {
    fail(origin, "missing \"shards\" array");
  }
  for (const util::json::Value& entry : *shards->as_array()) {
    if (entry.as_object() == nullptr) {
      fail(origin, "shard entry is not an object");
    }
    const util::json::Value* file = entry.find("file");
    if (file == nullptr || file->as_string() == nullptr ||
        file->as_string()->empty()) {
      fail(origin, "shard entry missing \"file\"");
    }
    const util::json::Value* shard_counts = entry.find("counts");
    if (shard_counts == nullptr || shard_counts->as_object() == nullptr) {
      fail(origin, "shard entry missing \"counts\"");
    }
    manifest.shards.push_back(
        {*file->as_string(), parse_counts(*shard_counts, origin)});
  }
  return manifest;
}

bool is_dataset_dir(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::is_directory(path, ec)) return false;
  return std::filesystem::is_regular_file(
      std::filesystem::path(path) / kManifestFileName, ec);
}

Dataset Dataset::open(const std::string& dir) {
  Dataset dataset;
  dataset.dir_ = dir;
  const std::string manifest_path =
      (std::filesystem::path(dir) / kManifestFileName).string();
  dataset.manifest_ = Manifest::parse_json(slurp(manifest_path), manifest_path);

  std::uint64_t rows = 0;
  for (const ManifestShard& shard : dataset.manifest_.shards) {
    const std::string path =
        (std::filesystem::path(dir) / shard.file).string();
    Reader reader = Reader::open(path);
    if (reader.counts().rows != shard.counts.rows) {
      fail(path, "footer row count disagrees with manifest (" +
                     std::to_string(reader.counts().rows) + " vs " +
                     std::to_string(shard.counts.rows) + ")");
    }
    if (dataset.readers_.empty()) {
      dataset.schema_ = reader.schema();
    } else if (!(reader.schema() == dataset.schema_)) {
      fail(path, "schema disagrees with " +
                     dataset.manifest_.shards.front().file);
    }
    rows += shard.counts.rows;
    dataset.readers_.push_back(std::move(reader));
  }
  if (dataset.manifest_.counts.rows != rows) {
    fail(manifest_path, "dataset row total disagrees with shard ledgers (" +
                            std::to_string(dataset.manifest_.counts.rows) +
                            " vs " + std::to_string(rows) + ")");
  }
  return dataset;
}

std::size_t Dataset::num_blocks() const {
  std::size_t total = 0;
  for (const Reader& reader : readers_) total += reader.num_blocks();
  return total;
}

std::uint64_t Dataset::file_bytes() const {
  std::uint64_t total = 0;
  for (const Reader& reader : readers_) total += reader.file_bytes();
  return total;
}

ScanResult Dataset::scan(par::ThreadPool* pool) const {
  return scan(ScanPredicate{}, pool);
}

ScanResult Dataset::scan(const ScanPredicate& predicate,
                         par::ThreadPool* pool) const {
  // One part (what a closed-loop round writes) is its reader's scan as is.
  if (readers_.size() == 1) return readers_.front().scan(predicate, pool);

  ScanResult out;
  out.context_dim = schema_.context_fields.size();
  // A full scan keeps every healthy row, so the columns are sized once for
  // the dataset's row count. What a predicate keeps is unknown until the
  // parts are scanned, and one part's result is held at a time.
  if (predicate.trivial()) {
    const auto total = static_cast<std::size_t>(rows());
    out.time.reserve(total);
    out.context.reserve(total * out.context_dim);
    out.action.reserve(total);
    out.reward.reserve(total);
    out.propensity.reserve(total);
  }
  std::size_t shard_base = 0;
  std::size_t block_base = 0;
  for (const Reader& reader : readers_) {
    ScanResult part = reader.scan(predicate, pool);
    out.blocks_read += part.blocks_read;
    out.blocks_pruned += part.blocks_pruned;
    out.rows_pruned += part.rows_pruned;
    for (QuarantinedBlock& q : part.quarantined) {
      q.shard += shard_base;
      q.block += block_base;
      out.quarantined.push_back(std::move(q));
    }
    out.time.insert(out.time.end(), part.time.begin(), part.time.end());
    out.context.insert(out.context.end(), part.context.begin(),
                       part.context.end());
    out.action.insert(out.action.end(), part.action.begin(),
                      part.action.end());
    out.reward.insert(out.reward.end(), part.reward.begin(),
                      part.reward.end());
    out.propensity.insert(out.propensity.end(), part.propensity.begin(),
                          part.propensity.end());
    shard_base += reader.shards().size();
    block_base += reader.num_blocks();
  }
  return out;
}

DatasetWriter::DatasetWriter(std::string dir, Schema schema,
                             WriterOptions options,
                             std::uint64_t rows_per_file)
    : dir_(std::move(dir)),
      schema_(std::move(schema)),
      options_(options),
      rows_per_file_(rows_per_file) {
  if (rows_per_file_ == 0) {
    throw std::invalid_argument(
        "store::DatasetWriter: rows_per_file must be positive");
  }
  std::filesystem::create_directories(dir_);
  roll();
}

DatasetWriter::~DatasetWriter() {
  try {
    finish();
  } catch (...) {
    // Destructors must not throw; an explicit finish() surfaces errors.
  }
}

void DatasetWriter::roll() {
  char name[32];
  std::snprintf(name, sizeof(name), "part-%05zu.hlog",
                manifest_.shards.size());
  const std::string path = (std::filesystem::path(dir_) / name).string();
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_) fail(path, "cannot create shard file");
  writer_ = std::make_unique<Writer>(out_, schema_, options_);
  manifest_.shards.push_back({name, Counts{}});
  part_rows_ = 0;
}

void DatasetWriter::close_part() {
  if (!writer_) return;
  // Each part file carries the pass-through ledger of its own rows; the
  // dataset-level drops live in the manifest's top-level counts.
  Counts counts;
  counts.records_seen = part_rows_;
  counts.decisions_seen = part_rows_;
  writer_->set_counts(counts);
  writer_->finish();
  writer_.reset();
  out_.close();
  counts.rows = part_rows_;
  manifest_.shards.back().counts = counts;
}

void DatasetWriter::add(double time, std::span<const double> context,
                        std::uint32_t action, double reward,
                        double propensity) {
  if (finished_) {
    throw std::logic_error("store::DatasetWriter: add() after finish()");
  }
  if (part_rows_ >= rows_per_file_) {
    close_part();
    roll();
  }
  writer_->add(time, context, action, reward, propensity);
  ++part_rows_;
  ++rows_written_;
}

void DatasetWriter::set_counts(const Counts& counts) {
  counts_ = counts;
  have_counts_ = true;
}

void DatasetWriter::finish() {
  if (finished_) return;
  finished_ = true;
  close_part();

  if (!have_counts_) {
    counts_.records_seen = rows_written_;
    counts_.decisions_seen = rows_written_;
  }
  counts_.rows = rows_written_;
  manifest_.counts = counts_;

  const std::string path =
      (std::filesystem::path(dir_) / kManifestFileName).string();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) fail(path, "cannot create manifest");
  const std::string json = manifest_.to_json();
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  out.flush();
  if (!out) fail(path, "manifest write failed");
}

}  // namespace harvest::store
