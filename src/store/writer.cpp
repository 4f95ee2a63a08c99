#include "store/writer.h"

#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/recorder.h"
#include "store/crc32c.h"
#include "store/encoding.h"

namespace harvest::store {

std::string encode_schema(const Schema& schema) {
  std::string out;
  put_str(out, schema.decision_event);
  put_u32(out, static_cast<std::uint32_t>(schema.context_fields.size()));
  for (const auto& field : schema.context_fields) put_str(out, field);
  put_str(out, schema.action_field);
  put_str(out, schema.reward_field);
  put_str(out, schema.propensity_field);
  put_f64(out, schema.stale_after_seconds);
  put_f64(out, schema.reward_lo);
  put_f64(out, schema.reward_hi);
  return out;
}

std::string encode_header_and_schema(const Schema& schema) {
  std::string head;
  put_u32(head, kFileMagic);
  put_u16(head, kFormatVersion);
  put_u16(head, 0);  // flags
  put_u32(head, schema.num_actions);
  put_u32(head, static_cast<std::uint32_t>(schema.context_fields.size()));
  const std::string payload = encode_schema(schema);
  put_u32(head, static_cast<std::uint32_t>(payload.size()));
  put_u32(head, crc32c(payload));
  head += payload;
  return head;
}

Writer::Writer(std::ostream& out, Schema schema, WriterOptions options)
    : out_(out),
      schema_(std::move(schema)),
      options_(options),
      blocks_written_(
          obs::Registry::global().counter("store_blocks_written_total")) {
  if (schema_.decision_event.empty()) {
    throw std::invalid_argument("store::Writer: decision_event required");
  }
  if (schema_.num_actions == 0) {
    throw std::invalid_argument("store::Writer: num_actions required");
  }
  if (options_.rows_per_block == 0 || options_.blocks_per_shard == 0) {
    throw std::invalid_argument(
        "store::Writer: rows_per_block and blocks_per_shard must be positive");
  }
  dicts_.resize(schema_.context_fields.size());

  const std::string head = encode_header_and_schema(schema_);
  out_.write(head.data(), static_cast<std::streamsize>(head.size()));
  offset_ = head.size();
  shard_offset_ = offset_;
}

Writer::~Writer() {
  try {
    finish();
  } catch (...) {
    // Destructors must not throw; an explicit finish() surfaces errors.
  }
}

void Writer::add(double time, std::span<const double> context,
                 std::uint32_t action, double reward, double propensity) {
  if (finished_) {
    throw std::logic_error("store::Writer: add() after finish()");
  }
  if (context.size() != schema_.context_fields.size()) {
    throw std::invalid_argument(
        "store::Writer: context arity mismatch: got " +
        std::to_string(context.size()) + ", schema has " +
        std::to_string(schema_.context_fields.size()));
  }
  time_.push_back(time);
  context_.insert(context_.end(), context.begin(), context.end());
  action_.push_back(action);
  reward_.push_back(reward);
  propensity_.push_back(propensity);
  ++rows_written_;
  if (time_.size() >= options_.rows_per_block) flush_block();
}

// Field-major: one tag byte per field, then the field's stream. A field is
// dictionary-coded while its shard-local cardinality fits max_dict_entries;
// the first block that would overflow rolls back the entries it tentatively
// added (they are exactly the tail of the insertion-ordered value list) and
// the field stays raw for the rest of the shard.
char* Writer::encode_context_column(char* out) {
  const std::size_t dim = schema_.context_fields.size();
  const std::size_t rows = time_.size();
  for (std::size_t f = 0; f < dim; ++f) {
    DictBuilder& dict = dicts_[f];
    bool use_dict = !dict.overflowed && options_.max_dict_entries > 0;
    if (use_dict) {
      code_scratch_.clear();
      const std::size_t snapshot = dict.values.size();
      for (std::size_t i = 0; i < rows; ++i) {
        const double v = context_[i * dim + f];
        const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
        const auto it = dict.code_of.find(bits);
        if (it != dict.code_of.end()) {
          code_scratch_.push_back(it->second);
          continue;
        }
        if (dict.values.size() >= options_.max_dict_entries) {
          use_dict = false;
          dict.overflowed = true;
          for (std::size_t j = snapshot; j < dict.values.size(); ++j) {
            dict.code_of.erase(std::bit_cast<std::uint64_t>(dict.values[j]));
          }
          dict.values.resize(snapshot);
          break;
        }
        const auto code = static_cast<std::uint32_t>(dict.values.size());
        dict.code_of.emplace(bits, code);
        dict.values.push_back(v);
        code_scratch_.push_back(code);
      }
    }
    if (use_dict) {
      *out++ = static_cast<char>(kContextDict);
      out = encode_u32(code_scratch_.data(), rows, out);
    } else {
      *out++ = static_cast<char>(kContextRaw);
      out = encode_f64(context_.data() + f, rows, dim, out);
    }
  }
  return out;
}

void Writer::flush_block() {
  if (time_.empty()) return;
  obs::ScopedSpan span("store.write_block");
  const auto rows = static_cast<std::uint32_t>(time_.size());

  ZoneMap zone;
  bool time_nan = false;
  bool prop_nan = false;
  for (std::size_t i = 0; i < time_.size(); ++i) {
    if (std::isnan(time_[i])) {
      time_nan = true;
    } else {
      zone.min_time = std::min(zone.min_time, time_[i]);
      zone.max_time = std::max(zone.max_time, time_[i]);
    }
    if (std::isnan(propensity_[i])) {
      prop_nan = true;
    } else {
      zone.min_propensity = std::min(zone.min_propensity, propensity_[i]);
      zone.max_propensity = std::max(zone.max_propensity, propensity_[i]);
    }
    zone.min_action = std::min(zone.min_action, action_[i]);
    zone.max_action = std::max(zone.max_action, action_[i]);
  }
  // A NaN (or an all-NaN column, which would leave the range inverted)
  // widens the zone to "anything" so pruning stays conservative.
  if (time_nan || zone.min_time > zone.max_time) {
    zone.min_time = -std::numeric_limits<double>::infinity();
    zone.max_time = std::numeric_limits<double>::infinity();
  }
  if (prop_nan || zone.min_propensity > zone.max_propensity) {
    zone.min_propensity = -std::numeric_limits<double>::infinity();
    zone.max_propensity = std::numeric_limits<double>::infinity();
  }

  // The whole block is encoded in place: magic and row count, then per
  // column an 8-byte slot that receives the payload's length and CRC once
  // the payload behind it is written. Sized for the worst case: one tag
  // byte per context field and kMaxVarintBytes per value.
  const std::size_t dim = schema_.context_fields.size();
  const std::size_t worst = 8 + 8 * kNumColumns + dim +
                            kMaxVarintBytes * rows * (kNumColumns - 1 + dim);
  if (block_.size() < worst) block_.resize(worst);
  char* const begin = block_.data();
  char* end = put_u32(put_u32(begin, kBlockMagic), rows);
  const auto column = [&](auto encode) {
    char* const payload = end + 8;
    end = encode(payload);
    const auto bytes = static_cast<std::size_t>(end - payload);
    put_u32(put_u32(payload - 8, static_cast<std::uint32_t>(bytes)),
            crc32c({payload, bytes}));
  };
  column([&](char* out) { return encode_f64(time_.data(), rows, 1, out); });
  column([&](char* out) { return encode_context_column(out); });
  column([&](char* out) { return encode_u32(action_.data(), rows, out); });
  column([&](char* out) { return encode_f64(reward_.data(), rows, 1, out); });
  column(
      [&](char* out) { return encode_f64(propensity_.data(), rows, 1, out); });

  const auto bytes = static_cast<std::size_t>(end - begin);
  out_.write(begin, static_cast<std::streamsize>(bytes));
  offset_ += bytes;
  shard_rows_ += rows;
  ++shard_blocks_;
  block_index_.push_back({static_cast<std::uint32_t>(bytes), rows, zone});
  blocks_written_.add(1.0);

  time_.clear();
  context_.clear();
  action_.clear();
  reward_.clear();
  propensity_.clear();

  if (shard_blocks_ >= options_.blocks_per_shard) close_shard();
}

void Writer::close_shard() {
  if (shard_blocks_ == 0) return;

  // Dictionary section: per context field, count + the insertion-ordered
  // values (count 0 when the field was never dictionary-coded this shard).
  std::string payload;
  for (auto& dict : dicts_) {
    put_u32(payload, static_cast<std::uint32_t>(dict.values.size()));
    for (const double v : dict.values) put_f64(payload, v);
  }
  std::string section;
  put_u32(section, static_cast<std::uint32_t>(payload.size()));
  put_u32(section, crc32c(payload));
  section += payload;
  out_.write(section.data(), static_cast<std::streamsize>(section.size()));
  offset_ += section.size();
  for (auto& dict : dicts_) {
    dict.code_of.clear();
    dict.values.clear();
    dict.overflowed = false;
  }

  ShardIndexEntry entry;
  entry.offset = shard_offset_;
  entry.first_row = shard_first_row_;
  entry.rows = shard_rows_;
  entry.blocks = shard_blocks_;
  entry.bytes = static_cast<std::uint32_t>(offset_ - shard_offset_);
  entry.dict_bytes = static_cast<std::uint32_t>(section.size());
  shards_.push_back(entry);
  shard_offset_ = offset_;
  shard_first_row_ += shard_rows_;
  shard_rows_ = 0;
  shard_blocks_ = 0;
}

void Writer::finish() {
  if (finished_) return;
  flush_block();
  close_shard();
  finished_ = true;

  counts_.rows = rows_written_;
  const std::string tail =
      encode_footer_and_trailer(shards_, block_index_, counts_);
  out_.write(tail.data(), static_cast<std::streamsize>(tail.size()));
  out_.flush();
  if (!out_) {
    throw std::runtime_error("store::Writer: stream write failed");
  }
}

}  // namespace harvest::store
