#include "logs/log_store.h"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/recorder.h"

namespace harvest::logs {

void LogStore::append(Record record) { records_.push_back(std::move(record)); }

void LogStore::write_text(std::ostream& out) const {
  for (const auto& rec : records_) out << serialize(rec) << '\n';
}

std::pair<LogStore, std::size_t> LogStore::read_text(std::istream& in) {
  auto [store, stats] = read_text_chunked(in);
  return {std::move(store), stats.skipped()};
}

namespace {

/// Parses one complete line into `store`, updating the ledger. Empty lines
/// (including the tail of a torn write that left only a newline) are
/// ignored, matching the historical getline-based reader.
void consume_line(std::string_view line, const ReadOptions& options,
                  LogStore& store, ReadStats& stats) {
  if (line.empty()) return;
  ++stats.lines_seen;
  if (line.size() > options.max_line_bytes) {
    ++stats.oversized;
    return;
  }
  auto rec = parse(line);
  if (rec) {
    store.append(std::move(*rec));
    ++stats.parsed;
  } else {
    ++stats.malformed;
  }
}

}  // namespace

std::pair<LogStore, ReadStats> LogStore::read_text_chunked(
    std::istream& in, const ReadOptions& options) {
  if (options.chunk_bytes == 0 || options.max_line_bytes == 0) {
    throw std::invalid_argument(
        "LogStore::read_text_chunked: chunk_bytes and max_line_bytes must "
        "be positive");
  }
  LogStore store;
  ReadStats stats;
  std::string chunk(options.chunk_bytes, '\0');
  std::string carry;          // partial line spanning chunk boundaries
  bool carry_overflow = false;  // current line already exceeded the cap

  while (in) {
    obs::ScopedSpan span("logs.ingest_chunk");
    in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    const auto got = static_cast<std::size_t>(in.gcount());
    if (got == 0) break;
    ++stats.chunks;
    stats.bytes_read += got;

    std::size_t start = 0;
    while (start < got) {
      const std::size_t nl =
          std::string_view(chunk.data() + start, got - start).find('\n');
      if (nl == std::string_view::npos) {
        // No newline in the rest of this chunk: accumulate bounded carry.
        if (!carry_overflow) {
          const std::size_t room = got - start;
          if (carry.size() + room > options.max_line_bytes) {
            carry_overflow = true;
            carry.clear();
          } else {
            carry.append(chunk, start, room);
          }
        }
        break;
      }
      if (carry_overflow) {
        ++stats.lines_seen;
        ++stats.oversized;
        carry_overflow = false;
      } else if (!carry.empty()) {
        carry.append(chunk, start, nl);
        consume_line(carry, options, store, stats);
        carry.clear();
      } else {
        consume_line(std::string_view(chunk.data() + start, nl), options,
                     store, stats);
      }
      start += nl + 1;
    }
  }
  // Trailing line without a final newline.
  if (carry_overflow) {
    ++stats.lines_seen;
    ++stats.oversized;
  } else if (!carry.empty()) {
    consume_line(carry, options, store, stats);
  }
  return {std::move(store), stats};
}

LogStore LogStore::roundtrip() const {
  std::stringstream buffer;
  write_text(buffer);
  auto [store, skipped] = read_text(buffer);
  (void)skipped;  // serialize() output always parses
  return std::move(store);
}

}  // namespace harvest::logs
