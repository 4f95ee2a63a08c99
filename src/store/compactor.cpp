#include "store/compactor.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/recorder.h"

namespace harvest::store {

MergeReport merge_readers(const std::vector<const Reader*>& inputs,
                          std::ostream& out, const WriterOptions& options,
                          par::ThreadPool* pool,
                          const ScanPredicate& predicate) {
  obs::ScopedSpan span("store.merge");
  if (inputs.empty()) {
    throw std::invalid_argument("store::merge_readers: no inputs");
  }
  const Schema& schema = inputs.front()->schema();
  for (const Reader* reader : inputs) {
    if (!(reader->schema() == schema)) {
      throw std::runtime_error("hlog merge: " + reader->origin() +
                               ": schema disagrees with " +
                               inputs.front()->origin());
    }
  }
  const std::size_t dim = schema.context_fields.size();

  MergeReport report;

  // Phase 1: decode every input, in input order, into one concatenated row
  // sequence. Each scan is internally parallel and thread-count invariant,
  // so the concatenation is too.
  std::vector<double> time;
  std::vector<double> context;
  std::vector<std::uint32_t> action;
  std::vector<double> reward;
  std::vector<double> propensity;
  for (const Reader* reader : inputs) {
    report.input_totals += reader->counts();
    ScanResult scan = predicate.trivial() ? reader->scan(pool)
                                          : reader->scan(predicate, pool);
    report.rows_quarantined += scan.rows_quarantined();
    // Rows the predicate removed: everything the ledger promised that was
    // neither decoded into the result nor lost to quarantine.
    report.rows_filtered +=
        reader->rows() - scan.rows() - scan.rows_quarantined();
    report.blocks_pruned += scan.blocks_pruned;
    time.insert(time.end(), scan.time.begin(), scan.time.end());
    context.insert(context.end(), scan.context.begin(), scan.context.end());
    action.insert(action.end(), scan.action.begin(), scan.action.end());
    reward.insert(reward.end(), scan.reward.begin(), scan.reward.end());
    propensity.insert(propensity.end(), scan.propensity.begin(),
                      scan.propensity.end());
  }
  report.rows_kept = time.size();

  // Phase 2: encode output shards in parallel. Shard s owns rows
  // [s*rows_per_shard, ...) — a pure function of the row sequence and the
  // options, so any pool produces identical bytes. Each task runs a full
  // Writer over its slice and lifts out the encoded shard region plus its
  // footer index entries.
  const std::uint64_t rows_per_shard =
      static_cast<std::uint64_t>(options.rows_per_block) *
      options.blocks_per_shard;
  if (rows_per_shard == 0) {
    throw std::invalid_argument(
        "store::merge_readers: rows_per_block and blocks_per_shard must be "
        "positive");
  }
  const std::uint64_t total_rows = report.rows_kept;
  const auto n_shards =
      static_cast<std::size_t>((total_rows + rows_per_shard - 1) /
                               rows_per_shard);
  std::vector<std::string> regions(n_shards);
  std::vector<ShardIndexEntry> shard_entries(n_shards);
  std::vector<std::vector<BlockIndexEntry>> block_entries(n_shards);
  par::parallel_for(
      pool, par::ShardPlan::per_item(n_shards),
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t s = begin; s < end; ++s) {
          const std::uint64_t first = s * rows_per_shard;
          const std::uint64_t last =
              std::min(total_rows, first + rows_per_shard);
          std::ostringstream buf(std::ios::binary);
          Writer writer(buf, schema, options);
          for (std::uint64_t r = first; r < last; ++r) {
            writer.add(time[r], {context.data() + r * dim, dim}, action[r],
                       reward[r], propensity[r]);
          }
          writer.finish();
          const ShardIndexEntry& entry = writer.shard_index().front();
          regions[s] = std::move(buf).str().substr(
              static_cast<std::size_t>(entry.offset), entry.bytes);
          shard_entries[s] = entry;  // offset/first_row shifted below
          block_entries[s] = writer.block_index();
        }
      });

  // Phase 3: stitch sequentially — header + schema, the shard regions with
  // shifted offsets, one combined footer.
  const std::string head = encode_header_and_schema(schema);
  out.write(head.data(), static_cast<std::streamsize>(head.size()));
  std::uint64_t offset = head.size();
  std::uint64_t first_row = 0;
  std::vector<BlockIndexEntry> all_blocks;
  for (std::size_t s = 0; s < n_shards; ++s) {
    shard_entries[s].offset = offset;
    shard_entries[s].first_row = first_row;
    offset += shard_entries[s].bytes;
    first_row += shard_entries[s].rows;
    out.write(regions[s].data(),
              static_cast<std::streamsize>(regions[s].size()));
    all_blocks.insert(all_blocks.end(), block_entries[s].begin(),
                      block_entries[s].end());
    report.output_blocks += block_entries[s].size();
  }
  report.output_shards = n_shards;

  report.output = report.input_totals;
  report.output.dropped_corrupt_block += report.rows_quarantined;
  report.output.rows = report.rows_kept;
  const std::string tail =
      encode_footer_and_trailer(shard_entries, all_blocks, report.output);
  out.write(tail.data(), static_cast<std::streamsize>(tail.size()));
  out.flush();
  if (!out) {
    throw std::runtime_error("store::merge_readers: stream write failed");
  }
  return report;
}

}  // namespace harvest::store
