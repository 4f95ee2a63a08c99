#include "store/reader.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/recorder.h"
#include "store/crc32c.h"
#include "store/encoding.h"

namespace harvest::store {

namespace {

/// A maximal run of contiguous healthy rows within a shard (absolute row
/// coordinates). The compaction pass squeezes quarantine/prune gaps out by
/// moving these in order.
struct Segment {
  std::uint64_t start = 0;
  std::uint64_t rows = 0;
};

/// Per-shard scan scratch, written only by the task that owns the shard.
struct ShardScan {
  std::vector<Segment> segments;
  std::vector<QuarantinedBlock> quarantined;
  std::size_t blocks_read = 0;
  std::size_t blocks_pruned = 0;
  std::uint64_t rows_pruned = 0;
};

const char* kColumnNames[kNumColumns] = {"time", "context", "action",
                                         "reward", "propensity"};

/// Parses one shard's trailing dictionary section into per-field value
/// tables. Returns false (without throwing — dictionary damage is
/// quarantine-grade, not fatal) on bad framing, CRC mismatch, or a payload
/// that does not decode to exactly `dim` field tables.
bool parse_dictionary(std::string_view data, const ShardIndexEntry& shard,
                      std::size_t dim, std::vector<std::vector<double>>* out) {
  if (shard.dict_bytes < 8 || shard.dict_bytes > shard.bytes) return false;
  const std::size_t at = shard.offset + shard.bytes - shard.dict_bytes;
  const std::uint32_t bytes = get_u32(data.data() + at);
  const std::uint32_t crc = get_u32(data.data() + at + 4);
  if (bytes != shard.dict_bytes - 8) return false;
  const std::string_view payload = data.substr(at + 8, bytes);
  if (crc32c(payload) != crc) return false;
  std::size_t pos = 0;
  out->assign(dim, {});
  for (std::size_t f = 0; f < dim; ++f) {
    if (pos + 4 > payload.size()) return false;
    const std::uint32_t count = get_u32(payload.data() + pos);
    pos += 4;
    if (count > (payload.size() - pos) / 8) return false;
    auto& values = (*out)[f];
    values.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      values.push_back(get_f64(payload.data() + pos));
      pos += 8;
    }
  }
  return pos == payload.size();
}

/// Decodes the field-major v2 context column into row-major `out` (stride
/// dim). Dictionary-coded fields look codes up in `dict`; `dict_ok` false
/// fails any block that actually uses codes (raw-only blocks still decode).
bool decode_context_column(std::string_view payload, std::size_t rows,
                           std::size_t dim, double* out,
                           const std::vector<std::vector<double>>& dict,
                           bool dict_ok, std::vector<std::uint32_t>& codes,
                           std::string* reason) {
  std::size_t pos = 0;
  for (std::size_t f = 0; f < dim; ++f) {
    if (pos >= payload.size()) {
      *reason = "decode_error";
      return false;
    }
    const auto tag = static_cast<std::uint8_t>(payload[pos++]);
    if (tag == kContextRaw) {
      if (!decode_f64(payload, &pos, rows, out + f, dim)) {
        *reason = "decode_error";
        return false;
      }
    } else if (tag == kContextDict) {
      if (!dict_ok) {
        *reason = "corrupt_dictionary";
        return false;
      }
      codes.resize(rows);
      if (!decode_u32(payload, &pos, rows, codes.data())) {
        *reason = "decode_error";
        return false;
      }
      const auto& values = dict[f];
      for (std::size_t i = 0; i < rows; ++i) {
        if (codes[i] >= values.size()) {
          *reason = "decode_error";
          return false;
        }
        out[i * dim + f] = values[codes[i]];
      }
    } else {
      *reason = "decode_error";
      return false;
    }
  }
  if (pos != payload.size()) {
    *reason = "decode_error";
    return false;
  }
  return true;
}

}  // namespace

Reader Reader::open(const std::string& path) {
  obs::ScopedSpan span("store.open");
  Reader reader;
  reader.map_ = MappedFile::open(path);
  reader.data_ = reader.map_.view();
  reader.origin_ = path;
  reader.parse();
  return reader;
}

Reader Reader::from_memory(std::string bytes, const std::string& origin) {
  obs::ScopedSpan span("store.open");
  Reader reader;
  reader.owned_ = std::move(bytes);
  reader.data_ = reader.owned_;
  reader.origin_ = origin;
  reader.parse();
  return reader;
}

void Reader::parse() {
  const auto corrupt = [this](const std::string& what) {
    throw std::runtime_error("hlog: " + origin_ + ": " + what);
  };

  if (data_.size() < kHeaderBytes + 8 + kTrailerBytes) {
    corrupt("file too small to be HLOG");
  }
  if (get_u32(data_.data()) != kFileMagic) corrupt("bad file magic");
  const std::uint16_t version = get_u16(data_.data() + 4);
  if (version != kFormatVersion) {
    corrupt("unsupported format version " + std::to_string(version));
  }
  const std::uint32_t num_actions = get_u32(data_.data() + 8);
  const std::uint32_t context_dim = get_u32(data_.data() + 12);

  // Schema section (CRC-guarded: a corrupt schema would mis-map every
  // column downstream, so it is fatal).
  const std::uint32_t schema_bytes = get_u32(data_.data() + kHeaderBytes);
  const std::uint32_t schema_crc = get_u32(data_.data() + kHeaderBytes + 4);
  const std::size_t schema_start = kHeaderBytes + 8;
  if (schema_start + schema_bytes + kTrailerBytes > data_.size()) {
    corrupt("schema section overruns file");
  }
  const std::string_view schema_payload =
      data_.substr(schema_start, schema_bytes);
  if (crc32c(schema_payload) != schema_crc) {
    corrupt("schema CRC mismatch");
  }
  std::size_t pos = 0;
  std::uint32_t ctx_count = 0;
  bool ok = get_str(schema_payload, &pos, &schema_.decision_event);
  if (ok && pos + 4 <= schema_payload.size()) {
    ctx_count = get_u32(schema_payload.data() + pos);
    pos += 4;
  } else {
    ok = false;
  }
  for (std::uint32_t i = 0; ok && i < ctx_count; ++i) {
    schema_.context_fields.emplace_back();
    ok = get_str(schema_payload, &pos, &schema_.context_fields.back());
  }
  ok = ok && get_str(schema_payload, &pos, &schema_.action_field) &&
       get_str(schema_payload, &pos, &schema_.reward_field) &&
       get_str(schema_payload, &pos, &schema_.propensity_field) &&
       pos + 24 == schema_payload.size();
  if (!ok) corrupt("malformed schema payload");
  schema_.stale_after_seconds = get_f64(schema_payload.data() + pos);
  schema_.reward_lo = get_f64(schema_payload.data() + pos + 8);
  schema_.reward_hi = get_f64(schema_payload.data() + pos + 16);
  schema_.num_actions = num_actions;
  if (schema_.context_fields.size() != context_dim) {
    corrupt("header/schema context arity disagree");
  }

  // Footer, located backwards from the fixed-size trailer.
  const std::size_t trailer_at = data_.size() - kTrailerBytes;
  if (get_u32(data_.data() + trailer_at + 8) != kTrailerMagic) {
    corrupt("bad trailer magic");
  }
  const std::uint32_t footer_bytes = get_u32(data_.data() + trailer_at);
  const std::uint32_t footer_crc = get_u32(data_.data() + trailer_at + 4);
  const std::size_t blocks_start = schema_start + schema_bytes;
  if (footer_bytes > trailer_at || trailer_at - footer_bytes < blocks_start) {
    corrupt("footer overruns file");
  }
  const std::size_t footer_at = trailer_at - footer_bytes;
  const std::string_view footer = data_.substr(footer_at, footer_bytes);
  if (crc32c(footer) != footer_crc) corrupt("footer CRC mismatch");

  if (footer.size() < 4) corrupt("footer truncated");
  const std::uint32_t shard_count = get_u32(footer.data());
  if (footer.size() < 4 + shard_count * kShardIndexBytes + kCountsBytes) {
    corrupt("footer size disagrees with shard count");
  }
  std::uint64_t expect_row = 0;
  std::uint64_t expect_offset = blocks_start;
  std::uint64_t total_blocks = 0;
  block_base_.assign(1, 0);
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    const char* p = footer.data() + 4 + s * kShardIndexBytes;
    ShardIndexEntry entry;
    entry.offset = get_u64(p);
    entry.first_row = get_u64(p + 8);
    entry.rows = get_u64(p + 16);
    entry.blocks = get_u32(p + 24);
    entry.bytes = get_u32(p + 28);
    entry.dict_bytes = get_u32(p + 32);
    if (entry.offset != expect_offset || entry.first_row != expect_row ||
        entry.offset + entry.bytes > footer_at ||
        entry.dict_bytes > entry.bytes) {
      corrupt("shard index entry " + std::to_string(s) + " inconsistent");
    }
    expect_offset = entry.offset + entry.bytes;
    expect_row += entry.rows;
    total_blocks += entry.blocks;
    shards_.push_back(entry);
    block_base_.push_back(static_cast<std::size_t>(total_blocks));
  }
  if (expect_offset != footer_at) {
    corrupt("shard index does not cover the block region");
  }
  if (footer.size() != 4 + shard_count * kShardIndexBytes +
                           total_blocks * kBlockIndexBytes + kCountsBytes) {
    corrupt("footer size disagrees with block count");
  }

  const char* bp = footer.data() + 4 + shard_count * kShardIndexBytes;
  blocks_.reserve(static_cast<std::size_t>(total_blocks));
  for (std::uint64_t b = 0; b < total_blocks; ++b) {
    BlockIndexEntry entry;
    entry.bytes = get_u32(bp);
    entry.rows = get_u32(bp + 4);
    entry.zone.min_time = get_f64(bp + 8);
    entry.zone.max_time = get_f64(bp + 16);
    entry.zone.min_action = get_u32(bp + 24);
    entry.zone.max_action = get_u32(bp + 28);
    entry.zone.min_propensity = get_f64(bp + 32);
    entry.zone.max_propensity = get_f64(bp + 40);
    blocks_.push_back(entry);
    bp += kBlockIndexBytes;
  }
  // The block index must tile each shard's byte/row extents exactly — it is
  // the only thing that locates blocks, so any disagreement is fatal.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    std::uint64_t bytes = shards_[s].dict_bytes;
    std::uint64_t rows = 0;
    for (std::size_t b = block_base_[s]; b < block_base_[s + 1]; ++b) {
      bytes += blocks_[b].bytes;
      rows += blocks_[b].rows;
    }
    if (bytes != shards_[s].bytes || rows != shards_[s].rows) {
      corrupt("block index disagrees with shard " + std::to_string(s));
    }
  }

  const char* c = bp;
  counts_.records_seen = get_u64(c);
  counts_.decisions_seen = get_u64(c + 8);
  counts_.dropped_missing_fields = get_u64(c + 16);
  counts_.dropped_bad_action = get_u64(c + 24);
  counts_.dropped_bad_propensity = get_u64(c + 32);
  counts_.dropped_stale_timestamp = get_u64(c + 40);
  counts_.dropped_corrupt_block = get_u64(c + 48);
  counts_.rows = get_u64(c + 56);
  if (counts_.rows != expect_row) {
    corrupt("footer row count disagrees with shard index");
  }
}

ScanResult Reader::scan(par::ThreadPool* pool) const {
  return scan(ScanPredicate{}, pool);
}

ScanResult Reader::scan(const ScanPredicate& predicate,
                        par::ThreadPool* pool) const {
  obs::ScopedSpan span("store.scan");
  const auto scan_start = std::chrono::steady_clock::now();
  const std::size_t dim = schema_.context_fields.size();
  const auto total_rows = static_cast<std::size_t>(counts_.rows);
  const bool filtering = !predicate.trivial();

  ScanResult result;
  result.context_dim = dim;
  result.time.resize(total_rows);
  result.context.resize(total_rows * dim);
  result.action.resize(total_rows);
  result.reward.resize(total_rows);
  result.propensity.resize(total_rows);

  std::vector<ShardScan> scans(shards_.size());
  par::parallel_for(
      pool, par::ShardPlan::per_item(shards_.size()),
      [&](std::size_t, std::size_t begin, std::size_t end) {
        // Flight-recorder events, not labeled metrics: shard/block indices
        // ride in the event payload, so per-block instrumentation cannot
        // blow up the registry's label cardinality.
        obs::Recorder& rec = obs::Recorder::global();
        static const std::uint32_t kShardName = rec.intern("store.shard");
        static const std::uint32_t kBlockName = rec.intern("store.block");
        static const std::uint32_t kQuarantineName =
            rec.intern("store.quarantine");
        static const std::uint32_t kPruneName = rec.intern("store.prune_block");
        const bool tracing = rec.enabled();
        std::vector<std::vector<double>> dict;
        std::vector<std::uint32_t> codes;
        for (std::size_t s = begin; s < end; ++s) {
          const ShardIndexEntry& shard = shards_[s];
          ShardScan& scan = scans[s];
          obs::RecSpan shard_span(rec, kShardName, s, shard.blocks);
          const bool dict_ok = parse_dictionary(data_, shard, dim, &dict);
          std::size_t next_at = shard.offset;
          std::uint64_t next_row = shard.first_row;
          for (std::uint32_t b = 0; b < shard.blocks; ++b) {
            const std::size_t gb = block_base_[s] + b;
            const BlockIndexEntry& entry = blocks_[gb];
            const std::size_t block_at = next_at;
            const std::uint64_t row = next_row;
            const std::uint32_t rows = entry.rows;
            next_at += entry.bytes;
            next_row += rows;

            if (filtering && !predicate.admits(entry.zone)) {
              ++scan.blocks_pruned;
              scan.rows_pruned += rows;
              rec.emit_instant(kPruneName, gb, rows);
              continue;
            }

            const std::uint64_t block_start = tracing ? rec.now_ns() : 0;
            const auto quarantine = [&](const std::string& reason) {
              scan.quarantined.push_back({s, gb, rows, reason});
              rec.emit_instant(kQuarantineName, gb, rows);
            };

            // Framing: magic + row count, then 5 (len, crc) column headers,
            // all confined to the trusted index extent [block_at, next_at).
            // Damage here costs this block alone — the index locates the
            // next one regardless.
            if (entry.bytes < 8 + 8 * kNumColumns ||
                get_u32(data_.data() + block_at) != kBlockMagic ||
                get_u32(data_.data() + block_at + 4) != rows) {
              quarantine("bad_block_header");
              continue;
            }
            std::size_t cursor = block_at + 8;
            std::string_view payload[kNumColumns];
            std::uint32_t crc[kNumColumns];
            bool framed = true;
            for (std::size_t col = 0; col < kNumColumns; ++col) {
              if (cursor + 8 > next_at) {
                framed = false;
                break;
              }
              const std::uint32_t bytes = get_u32(data_.data() + cursor);
              crc[col] = get_u32(data_.data() + cursor + 4);
              cursor += 8;
              if (bytes > next_at - cursor) {
                framed = false;
                break;
              }
              payload[col] = data_.substr(cursor, bytes);
              cursor += bytes;
            }
            if (!framed || cursor != next_at) {
              quarantine("bad_block_header");
              continue;
            }

            // Integrity, then decode into this block's pre-assigned rows.
            bool good = true;
            std::string bad_reason;
            for (std::size_t col = 0; col < kNumColumns && good; ++col) {
              if (crc32c(payload[col]) != crc[col]) {
                good = false;
                bad_reason = std::string("crc_mismatch:") + kColumnNames[col];
              }
            }
            if (good) {
              // Each column payload must hold exactly one stream: a decode
              // that stops short of its end is trailing garbage.
              const auto at = static_cast<std::size_t>(row);
              const auto f64 = [&](std::size_t col, double* out) {
                std::size_t pos = 0;
                return decode_f64(payload[col], &pos, rows, out, 1) &&
                       pos == payload[col].size();
              };
              const auto u32 = [&](std::size_t col, std::uint32_t* out) {
                std::size_t pos = 0;
                return decode_u32(payload[col], &pos, rows, out) &&
                       pos == payload[col].size();
              };
              good = f64(0, result.time.data() + at) &&
                     decode_context_column(payload[1], rows, dim,
                                           result.context.data() + at * dim,
                                           dict, dict_ok, codes, &bad_reason) &&
                     u32(2, result.action.data() + at) &&
                     f64(3, result.reward.data() + at) &&
                     f64(4, result.propensity.data() + at);
              if (good) {
                bad_reason.clear();
              } else if (bad_reason.empty()) {
                bad_reason = "decode_error";
              }
            }
            if (good) {
              ++scan.blocks_read;
              std::uint64_t kept = rows;
              if (filtering) {
                // Compact matching rows to the front of this block's slot
                // range; the gap joins the quarantine gaps at merge time.
                const auto at = static_cast<std::size_t>(row);
                std::size_t w = 0;
                for (std::size_t i = 0; i < rows; ++i) {
                  if (!predicate.matches(result.time[at + i],
                                         result.action[at + i],
                                         result.propensity[at + i])) {
                    continue;
                  }
                  if (w != i) {
                    result.time[at + w] = result.time[at + i];
                    std::copy_n(result.context.begin() +
                                    static_cast<std::ptrdiff_t>((at + i) * dim),
                                dim,
                                result.context.begin() +
                                    static_cast<std::ptrdiff_t>((at + w) * dim));
                    result.action[at + w] = result.action[at + i];
                    result.reward[at + w] = result.reward[at + i];
                    result.propensity[at + w] = result.propensity[at + i];
                  }
                  ++w;
                }
                kept = w;
              }
              if (kept > 0) {
                if (!scan.segments.empty() &&
                    scan.segments.back().start + scan.segments.back().rows ==
                        row) {
                  scan.segments.back().rows += kept;
                } else {
                  scan.segments.push_back({row, kept});
                }
              }
            } else {
              quarantine(bad_reason);
            }
            if (tracing) {
              rec.emit_span(kBlockName, block_start,
                            rec.now_ns() - block_start, gb, rows);
            }
          }
        }
      });

  // Merge per-shard results in shard order (deterministic for any pool),
  // compacting quarantine/prune/filter gaps with in-place moves.
  std::size_t write = 0;
  for (const auto& scan : scans) {
    result.blocks_read += scan.blocks_read;
    result.blocks_pruned += scan.blocks_pruned;
    result.rows_pruned += scan.rows_pruned;
    for (const auto& q : scan.quarantined) result.quarantined.push_back(q);
    for (const auto& seg : scan.segments) {
      const auto start = static_cast<std::size_t>(seg.start);
      const auto n = static_cast<std::size_t>(seg.rows);
      if (start != write) {
        std::copy_n(result.time.begin() + start, n,
                    result.time.begin() + write);
        std::copy_n(result.context.begin() + start * dim, n * dim,
                    result.context.begin() + write * dim);
        std::copy_n(result.action.begin() + start, n,
                    result.action.begin() + write);
        std::copy_n(result.reward.begin() + start, n,
                    result.reward.begin() + write);
        std::copy_n(result.propensity.begin() + start, n,
                    result.propensity.begin() + write);
      }
      write += n;
    }
  }
  result.time.resize(write);
  result.context.resize(write * dim);
  result.action.resize(write);
  result.reward.resize(write);
  result.propensity.resize(write);

  obs::Registry& registry = obs::Registry::global();
  registry.counter("store_blocks_read_total")
      .add(static_cast<double>(result.blocks_read));
  registry.counter("store_blocks_quarantined_total")
      .add(static_cast<double>(result.quarantined.size()));
  registry.counter("store_blocks_pruned_total")
      .add(static_cast<double>(result.blocks_pruned));
  registry.counter("store_blocks_scanned_total")
      .add(static_cast<double>(result.blocks_read + result.quarantined.size()));
  registry.counter("store_rows_scanned_total")
      .add(static_cast<double>(write));
  registry.histogram("store_scan_ms")
      .observe(std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - scan_start)
                   .count());
  return result;
}

}  // namespace harvest::store
