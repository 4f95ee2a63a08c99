// Streaming HLOG writer. Buffers at most one block of rows (bounded memory
// regardless of corpus size), encodes columns on block boundaries, and
// closes the file with the footer index + compaction ledger. Output is a
// pure function of (schema, options, row sequence, counts) — no wall-clock
// timestamps or randomness ever reach the file, so compacting the same text
// corpus twice yields byte-identical HLOG.
//
// v2 additions: every flushed block records its zone map (min/max time,
// action range, propensity range) in the footer block index, and context
// fields whose shard-local cardinality stays within
// WriterOptions::max_dict_entries are dictionary-coded (u32 codes against a
// per-shard CRC-guarded dictionary section).
#pragma once

#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "store/format.h"

namespace harvest::obs {
class Counter;
}

namespace harvest::store {

/// Block/shard geometry. Blocks are the unit of CRC protection, corruption
/// quarantine, and zone-map pruning; shards (runs of blocks) are the unit of
/// parallel scanning and dictionary scope. The defaults keep blocks big
/// enough that varint decode amortizes and shards numerous enough that
/// mid-size corpora still fan out.
struct WriterOptions {
  std::size_t rows_per_block = 4096;
  std::size_t blocks_per_shard = 8;
  /// Distinct values a context field may take within one shard and still be
  /// dictionary-coded; past this the field falls back to raw encoding for
  /// the shard's remaining blocks. 0 disables dictionary coding.
  std::size_t max_dict_entries = 256;
};

class Writer {
 public:
  /// Writes the header + schema section immediately. Throws
  /// std::invalid_argument on a malformed schema (no decision event, zero
  /// actions) or zero block/shard geometry.
  Writer(std::ostream& out, Schema schema, WriterOptions options = {});

  /// Appends one decision row. `context.size()` must equal the schema's
  /// context arity. Values are stored bit-exactly (pre-transform raw
  /// reward, validated propensity — 1.0 placeholder when the schema has no
  /// propensity field).
  void add(double time, std::span<const double> context, std::uint32_t action,
           double reward, double propensity);

  /// Records the compaction ledger persisted in the footer. Call any time
  /// before finish(); rows is filled in automatically.
  void set_counts(const Counts& counts) { counts_ = counts; }

  /// Flushes the open block and writes footer + trailer. Idempotent; the
  /// destructor calls it, but calling explicitly surfaces stream errors.
  void finish();

  ~Writer();
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  std::uint64_t rows_written() const { return rows_written_; }
  const Schema& schema() const { return schema_; }

  /// Footer indices accumulated so far (complete after finish()). The
  /// merging compactor uses these to lift a freshly encoded shard region
  /// into a combined file without reparsing it.
  const std::vector<ShardIndexEntry>& shard_index() const { return shards_; }
  const std::vector<BlockIndexEntry>& block_index() const {
    return block_index_;
  }

 private:
  /// Per-shard dictionary under construction for one context field. Keys are
  /// the exact f64 bit patterns (so -0.0/0.0 and NaN payloads stay distinct
  /// and round-trip bit-exactly); codes are insertion order.
  struct DictBuilder {
    std::unordered_map<std::uint64_t, std::uint32_t> code_of;
    std::vector<double> values;
    bool overflowed = false;
  };

  void flush_block();
  void close_shard();
  /// Encodes the context column at `out` and returns its end.
  char* encode_context_column(char* out);

  std::ostream& out_;
  Schema schema_;
  WriterOptions options_;
  Counts counts_;

  // Current block's column buffers (bounded by rows_per_block).
  std::vector<double> time_;
  std::vector<double> context_;  // row-major rows*dim
  std::vector<std::uint32_t> action_;
  std::vector<double> reward_;
  std::vector<double> propensity_;

  std::vector<ShardIndexEntry> shards_;
  std::vector<BlockIndexEntry> block_index_;
  std::vector<DictBuilder> dicts_;  ///< one per context field, reset per shard
  std::uint64_t offset_ = 0;        ///< bytes written so far
  std::uint64_t shard_offset_ = 0;  ///< offset of the open shard's first block
  std::uint64_t shard_first_row_ = 0;
  std::uint64_t shard_rows_ = 0;
  std::uint32_t shard_blocks_ = 0;
  std::uint64_t rows_written_ = 0;
  bool finished_ = false;
  std::vector<char> block_;  ///< reused block buffer, grown to the worst case
  std::vector<std::uint32_t> code_scratch_;
  /// store_blocks_written_total, resolved once; valid as long as nothing
  /// clears the global registry while this writer is alive.
  obs::Counter& blocks_written_;
};

/// Serializes the schema payload (shared by Writer and the reader's
/// verifier/tests).
std::string encode_schema(const Schema& schema);

/// Serializes the fixed header + CRC-guarded schema section that opens every
/// HLOG file (shared by Writer and the merging compactor).
std::string encode_header_and_schema(const Schema& schema);

}  // namespace harvest::store
