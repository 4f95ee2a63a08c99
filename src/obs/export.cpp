#include "obs/export.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "util/json.h"

namespace harvest::obs {

namespace {

/// JSON-safe number rendering: JSON has no inf/nan literals, so empty
/// histograms (min=+inf, max=-inf, quantile=NaN) export as null.
std::string json_number(double v) {
  if (std::isnan(v) || std::isinf(v)) return "null";
  std::ostringstream out;
  out.precision(12);
  out << v;
  return out.str();
}

std::string json_labels(const Labels& labels) {
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + util::json::escape(labels[i].first) + "\":\"" +
           util::json::escape(labels[i].second) + "\"";
  }
  out += "}";
  return out;
}

}  // namespace

void write_jsonl(const Registry& registry, std::ostream& out) {
  for (const auto& entry : registry.counters()) {
    out << "{\"type\":\"counter\",\"name\":\""
        << util::json::escape(entry.name) << "\",\"labels\":"
        << json_labels(entry.labels) << ",\"value\":"
        << json_number(entry.metric->value()) << "}\n";
  }
  for (const auto& entry : registry.gauges()) {
    out << "{\"type\":\"gauge\",\"name\":\""
        << util::json::escape(entry.name) << "\",\"labels\":"
        << json_labels(entry.labels) << ",\"value\":"
        << json_number(entry.metric->value()) << "}\n";
  }
  for (const auto& entry : registry.histograms()) {
    const Histogram& h = *entry.metric;
    out << "{\"type\":\"histogram\",\"name\":\""
        << util::json::escape(entry.name) << "\",\"labels\":"
        << json_labels(entry.labels) << ",\"count\":" << h.count()
        << ",\"mean\":" << json_number(h.mean()) << ",\"min\":"
        << json_number(h.min()) << ",\"max\":" << json_number(h.max())
        << ",\"sum\":" << json_number(h.sum()) << ",\"p50\":"
        << json_number(h.p50()) << ",\"p90\":" << json_number(h.p90())
        << ",\"p99\":" << json_number(h.p99()) << "}\n";
  }
}

bool write_jsonl_file(const Registry& registry, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_jsonl(registry, out);
  return true;
}

}  // namespace harvest::obs
