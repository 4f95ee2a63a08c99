// Registry exporter: JSONL, one metric series per line, for offline
// analysis of bench runs. A snapshot — safe to call while other threads
// keep recording.
#pragma once

#include <iosfwd>
#include <string>

#include "obs/metrics.h"

namespace harvest::obs {

/// One JSON object per metric series:
///   {"type":"counter","name":"lb_requests_total","labels":{"server":"0"},
///    "value":28000}
///   {"type":"histogram","name":"lb_latency_seconds","labels":{},
///    "count":28000,"mean":0.41,"min":0.18,"max":1.9,"sum":11480.0,
///    "p50":0.38,"p90":0.61,"p99":0.92}
void write_jsonl(const Registry& registry, std::ostream& out);

/// Writes the JSONL dump to `path`; returns false (and writes nothing) if
/// the file cannot be opened.
bool write_jsonl_file(const Registry& registry, const std::string& path);

}  // namespace harvest::obs
