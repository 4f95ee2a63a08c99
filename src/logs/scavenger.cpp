#include "logs/scavenger.h"

#include <stdexcept>

#include "obs/recorder.h"
#include "store/dataset.h"
#include "store/reader.h"

namespace harvest::logs {

std::string_view to_string(QuarantineClass cls) {
  switch (cls) {
    case QuarantineClass::kMissingField:
      return "missing_field";
    case QuarantineClass::kBadAction:
      return "bad_action";
    case QuarantineClass::kBadPropensity:
      return "bad_propensity";
    case QuarantineClass::kStaleTimestamp:
      return "stale_timestamp";
    case QuarantineClass::kCorruptBlock:
      return "corrupt_block";
  }
  return "unknown";
}

namespace {

/// Shared spec validation for both the text and HLOG paths.
void validate_spec(const ScavengeSpec& spec) {
  if (spec.decision_event.empty()) {
    throw std::invalid_argument("scavenge: decision_event required");
  }
  if (spec.num_actions == 0) {
    throw std::invalid_argument("scavenge: num_actions required");
  }
  if (!spec.reward_transform) {
    throw std::invalid_argument("scavenge: reward_transform required");
  }
  if (spec.stale_after_seconds < 0) {
    throw std::invalid_argument("scavenge: stale_after_seconds must be >= 0");
  }
}

}  // namespace

ScavengeResult scavenge(const LogStore& log, const ScavengeSpec& spec) {
  validate_spec(spec);

  ScavengeResult result{core::ExplorationDataset(spec.num_actions,
                                                 spec.reward_range),
                        0, 0, 0, 0, 0, 0, 0};
  obs::Recorder& recorder = obs::Recorder::global();
  static const std::uint32_t kQuarantineName =
      recorder.intern("harvest.quarantine");
  const auto quarantine = [&](QuarantineClass cls, const Record& rec,
                              std::size_t& counter) {
    ++counter;
    recorder.emit_instant(kQuarantineName,
                          static_cast<std::uint64_t>(cls));
    if (spec.on_quarantine) spec.on_quarantine(cls, rec);
  };

  double high_water_time = 0;
  bool have_time = false;
  for (const auto& rec : log.records()) {
    ++result.records_seen;
    if (rec.event != spec.decision_event) continue;
    ++result.decisions_seen;

    // Stale-timestamp check against the stream's high-water mark. The mark
    // advances on every decision (even quarantined ones): a late replay must
    // not hold the clock back for the records behind it.
    if (spec.stale_after_seconds > 0 && have_time &&
        rec.time + spec.stale_after_seconds < high_water_time) {
      quarantine(QuarantineClass::kStaleTimestamp, rec,
                 result.dropped_stale_timestamp);
      continue;
    }
    if (!have_time || rec.time > high_water_time) {
      high_water_time = rec.time;
      have_time = true;
    }

    std::vector<double> features;
    features.reserve(spec.context_fields.size());
    bool missing = false;
    for (const auto& field : spec.context_fields) {
      const auto v = rec.number(field);
      if (!v) {
        missing = true;
        break;
      }
      features.push_back(*v);
    }
    const auto action_raw = rec.integer(spec.action_field);
    const auto reward_raw = rec.number(spec.reward_field);
    if (missing || !action_raw || !reward_raw) {
      quarantine(QuarantineClass::kMissingField, rec,
                 result.dropped_missing_fields);
      continue;
    }
    if (*action_raw < 0 ||
        *action_raw >= static_cast<std::int64_t>(spec.num_actions)) {
      quarantine(QuarantineClass::kBadAction, rec, result.dropped_bad_action);
      continue;
    }

    double propensity = 1.0;  // placeholder until step-2 annotation
    if (!spec.propensity_field.empty()) {
      const auto p = rec.number(spec.propensity_field);
      if (!p) {
        // Absent (or unparsable) propensity: a missing field, distinct from
        // a present-but-invalid one.
        quarantine(QuarantineClass::kMissingField, rec,
                   result.dropped_missing_fields);
        continue;
      }
      if (*p <= 0 || *p > 1) {
        quarantine(QuarantineClass::kBadPropensity, rec,
                   result.dropped_bad_propensity);
        continue;
      }
      propensity = *p;
    }

    result.data.add(core::ExplorationPoint{
        core::FeatureVector(std::move(features)),
        static_cast<core::ActionId>(*action_raw),
        spec.reward_transform(*reward_raw), propensity});
    if (spec.on_harvest) {
      spec.on_harvest(rec, result.data[result.data.size() - 1]);
    }
  }
  return result;
}

namespace {

/// Shared schema check for the binary paths; `origin` names the file (or
/// dataset directory) so a mismatch among many shards is attributable.
void check_schema(const store::Schema& schema, const ScavengeSpec& spec,
                  const std::string& origin) {
  const auto mismatch = [&](const std::string& what) {
    throw std::invalid_argument(
        "scavenge: " + origin + ": spec does not match the HLOG schema (" +
        what + ") — this corpus was compacted under a different field "
        "mapping");
  };
  if (schema.decision_event != spec.decision_event) mismatch("decision_event");
  if (schema.context_fields != spec.context_fields) mismatch("context_fields");
  if (schema.action_field != spec.action_field) mismatch("action_field");
  if (schema.reward_field != spec.reward_field) mismatch("reward_field");
  if (schema.propensity_field != spec.propensity_field) {
    mismatch("propensity_field");
  }
  if (schema.num_actions != spec.num_actions) mismatch("num_actions");
  if (schema.stale_after_seconds != spec.stale_after_seconds) {
    mismatch("stale_after_seconds");
  }
  if (schema.reward_lo != spec.reward_range.lo ||
      schema.reward_hi != spec.reward_range.hi) {
    mismatch("reward_range");
  }
}

/// Builds the ScavengeResult from a completed binary scan: footer ledger +
/// merge-time corrupt rows + freshly quarantined blocks, then the tuples.
ScavengeResult scavenge_scan(const store::ScanResult& scan,
                             const store::Counts& counts,
                             const ScavengeSpec& spec) {
  ScavengeResult result{core::ExplorationDataset(spec.num_actions,
                                                 spec.reward_range),
                        static_cast<std::size_t>(counts.records_seen),
                        static_cast<std::size_t>(counts.decisions_seen),
                        static_cast<std::size_t>(counts.dropped_missing_fields),
                        static_cast<std::size_t>(counts.dropped_bad_action),
                        static_cast<std::size_t>(counts.dropped_bad_propensity),
                        static_cast<std::size_t>(
                            counts.dropped_stale_timestamp),
                        static_cast<std::size_t>(counts.dropped_corrupt_block +
                                                 scan.rows_quarantined())};

  // Corrupt blocks join the quarantine ledger like any other drop class;
  // the synthetic record carries the block coordinates a dead-letter
  // consumer needs to go find the damage.
  if (spec.on_quarantine) {
    for (const auto& q : scan.quarantined) {
      Record rec;
      rec.event = "hlog.corrupt_block";
      rec.set("block", static_cast<std::int64_t>(q.block));
      rec.set("rows", static_cast<std::int64_t>(q.rows));
      rec.set("reason", q.reason);
      spec.on_quarantine(QuarantineClass::kCorruptBlock, rec);
    }
  }

  const std::size_t dim = scan.context_dim;
  result.data.reserve(scan.rows());
  for (std::size_t i = 0; i < scan.rows(); ++i) {
    std::vector<double> features(scan.context.begin() + i * dim,
                                 scan.context.begin() + (i + 1) * dim);
    result.data.add(core::ExplorationPoint{
        core::FeatureVector(std::move(features)),
        static_cast<core::ActionId>(scan.action[i]),
        spec.reward_transform(scan.reward[i]), scan.propensity[i]});
  }
  return result;
}

}  // namespace

ScavengeSpec spec_from_schema(const store::Schema& schema) {
  ScavengeSpec spec;
  spec.decision_event = schema.decision_event;
  spec.context_fields = schema.context_fields;
  spec.action_field = schema.action_field;
  spec.reward_field = schema.reward_field;
  spec.propensity_field = schema.propensity_field;
  spec.reward_transform = [](double r) { return r; };
  spec.num_actions = schema.num_actions;
  spec.reward_range = {schema.reward_lo, schema.reward_hi};
  spec.stale_after_seconds = schema.stale_after_seconds;
  return spec;
}

ScavengeResult scavenge(const store::Reader& reader, const ScavengeSpec& spec,
                        const store::ScanPredicate& predicate) {
  validate_spec(spec);
  check_schema(reader.schema(), spec, reader.origin());
  return scavenge_scan(reader.scan(predicate), reader.counts(), spec);
}

ScavengeResult scavenge(const store::Dataset& dataset,
                        const ScavengeSpec& spec,
                        const store::ScanPredicate& predicate) {
  validate_spec(spec);
  check_schema(dataset.schema(), spec, dataset.dir());
  return scavenge_scan(dataset.scan(predicate), dataset.totals(), spec);
}

}  // namespace harvest::logs
