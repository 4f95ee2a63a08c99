// Step 1 of the methodology: extracting ⟨x, a, r⟩ tuples from raw logs.
// A ScavengeSpec declares which fields form the context, the action, and the
// reward — the "feature engineering" the paper notes every application needs.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/dataset.h"
#include "logs/log_store.h"
#include "store/format.h"  // store::ScanPredicate rides the HLOG fast path

namespace harvest::store {
class Reader;   // store/reader.h; scavenge has an HLOG fast path
class Dataset;  // store/dataset.h; partitioned corpora scavenge the same way
}

namespace harvest::logs {

/// Why a decision record was quarantined instead of harvested. Every dropped
/// record lands in exactly one class, so drop counts always reconcile:
/// decisions_seen == harvested + Σ per-class drops.
enum class QuarantineClass {
  kMissingField,    ///< a context/action/reward/propensity field is absent
                    ///  or unparsable
  kBadAction,       ///< action index outside [0, num_actions)
  kBadPropensity,   ///< propensity present but outside (0, 1]
  kStaleTimestamp,  ///< timestamp too far behind the stream's high-water mark
  kCorruptBlock,    ///< HLOG column block failed its CRC; all rows of the
                    ///  block are dropped together (binary path only)
};

std::string_view to_string(QuarantineClass cls);

/// Declarative mapping from log records to exploration tuples.
struct ScavengeSpec {
  /// Only records with this event kind are decisions.
  std::string decision_event;
  /// Field names (in order) that become the context features.
  std::vector<std::string> context_fields;
  /// Field holding the action index.
  std::string action_field;
  /// Field holding the raw reward/cost value.
  std::string reward_field;
  /// Optional field holding the logged propensity. When absent, points get
  /// the placeholder propensity 1 and must be re-annotated by a
  /// core::PropensityModel (step 2).
  std::string propensity_field;
  /// Raw reward -> reward in reward_range (e.g. latency -> 1 - lat/max).
  std::function<double(double)> reward_transform;

  std::size_t num_actions = 0;
  core::RewardRange reward_range;

  /// When positive, a decision whose timestamp lags the largest timestamp
  /// seen so far by more than this is quarantined as stale — the defense
  /// against clock skew and late replays joining the wrong regime. 0
  /// disables the check (the default: simulators emit monotone clocks).
  double stale_after_seconds = 0;

  /// Optional quarantine channel: invoked once per dropped decision with
  /// the classification and the offending record. Lets callers divert bad
  /// records to a dead-letter log instead of merely counting them. On the
  /// HLOG path a corrupt block raises one synthetic "hlog.corrupt_block"
  /// record (fields: block, rows, reason) — there is no original text to
  /// divert.
  std::function<void(QuarantineClass, const Record&)> on_quarantine;

  /// Optional harvest tap: invoked once per *kept* decision with the source
  /// record and the tuple just added. This is how harvest_compact captures
  /// timestamps alongside tuples without re-running field extraction (text
  /// path only; HLOG rows no longer carry their source records).
  std::function<void(const Record&, const core::ExplorationPoint&)> on_harvest;
};

/// Scavenging outcome: the dataset plus data-quality counters, because real
/// logs are incomplete and the pipeline must say how much it dropped.
struct ScavengeResult {
  core::ExplorationDataset data;
  std::size_t records_seen = 0;
  std::size_t decisions_seen = 0;
  std::size_t dropped_missing_fields = 0;
  std::size_t dropped_bad_action = 0;
  std::size_t dropped_bad_propensity = 0;
  std::size_t dropped_stale_timestamp = 0;
  std::size_t dropped_corrupt_block = 0;

  /// Total quarantined decisions; decisions_seen - total_dropped() is the
  /// surviving sample the estimators actually run on.
  std::size_t total_dropped() const {
    return dropped_missing_fields + dropped_bad_action +
           dropped_bad_propensity + dropped_stale_timestamp +
           dropped_corrupt_block;
  }
};

/// The spec that scavenges a corpus compacted under `schema`: the schema's
/// field mapping, action count, staleness window and reward range, with the
/// identity reward transform. The binary paths' schema check always accepts
/// it.
ScavengeSpec spec_from_schema(const store::Schema& schema);

/// Runs the spec over the log. Throws std::invalid_argument on a malformed
/// spec (no decision event, zero actions, missing transform).
ScavengeResult scavenge(const LogStore& log, const ScavengeSpec& spec);

/// The HLOG fast path: scans a compacted corpus and rebuilds the exact
/// ScavengeResult the text path would have produced — tuples bit-identical
/// and in the same order (validation ran at compaction; raw rewards are
/// stored, so `spec.reward_transform` is applied here), counters restored
/// from the footer ledger, plus any CRC-quarantined blocks accounted as
/// kCorruptBlock drops. Throws std::invalid_argument (naming the corpus
/// path) when `spec` does not match the schema the corpus was compacted
/// under: a mismatched field mapping would silently scavenge a different
/// question, so it is refused (re-scavenge the original text instead).
///
/// A non-trivial `predicate` is pushed down to the zone-mapped scan: only
/// matching rows are harvested (blocks that cannot match are never read).
/// The footer ledger counters still describe the *whole* corpus — rows
/// outside the predicate window are neither harvested nor counted as drops,
/// so `decisions_seen == harvested + total_dropped()` reconciles only for
/// the trivial predicate.
ScavengeResult scavenge(const store::Reader& reader, const ScavengeSpec& spec,
                        const store::ScanPredicate& predicate = {});

/// Same fast path over a partitioned dataset: shards scavenge in manifest
/// order, ledger counters come from the dataset manifest.
ScavengeResult scavenge(const store::Dataset& dataset,
                        const ScavengeSpec& spec,
                        const store::ScanPredicate& predicate = {});

}  // namespace harvest::logs
