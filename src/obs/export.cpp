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

/// Prometheus exposition-format label-value escaping: backslash, double
/// quote, and line feed are the three characters the text format requires
/// escaped inside label values.
std::string prom_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string prom_labels(const Labels& labels, const std::string& extra = "") {
  if (labels.empty() && extra.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    out += k + "=\"" + prom_escape(v) + "\"";
    first = false;
  }
  if (!extra.empty()) {
    if (!first) out += ",";
    out += extra;
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

void write_prometheus(const Registry& registry, std::ostream& out) {
  for (const auto& entry : registry.counters()) {
    out << "# TYPE " << entry.name << " counter\n"
        << entry.name << prom_labels(entry.labels) << " "
        << json_number(entry.metric->value()) << "\n";
  }
  for (const auto& entry : registry.gauges()) {
    out << "# TYPE " << entry.name << " gauge\n"
        << entry.name << prom_labels(entry.labels) << " "
        << json_number(entry.metric->value()) << "\n";
  }
  for (const auto& entry : registry.histograms()) {
    const Histogram& h = *entry.metric;
    out << "# TYPE " << entry.name << " summary\n";
    out << entry.name << prom_labels(entry.labels, "quantile=\"0.5\"") << " "
        << json_number(h.p50()) << "\n";
    out << entry.name << prom_labels(entry.labels, "quantile=\"0.9\"") << " "
        << json_number(h.p90()) << "\n";
    out << entry.name << prom_labels(entry.labels, "quantile=\"0.99\"") << " "
        << json_number(h.p99()) << "\n";
    out << entry.name << "_sum" << prom_labels(entry.labels) << " "
        << json_number(h.sum()) << "\n";
    out << entry.name << "_count" << prom_labels(entry.labels) << " "
        << h.count() << "\n";
  }
}

bool write_jsonl_file(const Registry& registry, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_jsonl(registry, out);
  return true;
}

}  // namespace harvest::obs
