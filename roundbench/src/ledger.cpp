#include "ledger.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <mutex>

namespace roundbench {

namespace obs = harvest::obs;

namespace {

/// Interned ids of the benchmark's own span names, so analysis can tell them
/// from the spans the harvest layers record internally.
struct OwnNames {
  std::mutex mu;
  std::map<std::uint32_t, std::string> by_id;  // guarded by mu
};

OwnNames& own_names() {
  static OwnNames names;
  return names;
}

std::string_view layer_of(std::string_view name) {
  return name.substr(0, name.find('.'));
}

std::uint32_t own_name(std::string_view name) {
  const std::uint32_t name_id = obs::Recorder::global().intern(name);
  OwnNames& own = own_names();
  std::lock_guard<std::mutex> lock(own.mu);
  own.by_id.emplace(name_id, std::string(name));
  return name_id;
}

}  // namespace

obs::RecSpan span(std::string_view name, std::uint64_t id,
                  std::uint64_t rows) {
  obs::Recorder& rec = obs::Recorder::global();
  // Untraced runs skip the interning: the span records nothing anyway.
  return obs::RecSpan(rec, rec.enabled() ? own_name(name) : 0, id, rows);
}

void record_span(std::string_view name, std::uint64_t start_ns,
                 std::uint64_t end_ns, std::uint64_t id, std::uint64_t rows) {
  obs::Recorder& rec = obs::Recorder::global();
  if (!rec.enabled()) return;
  rec.emit_span(own_name(name), start_ns, end_ns - start_ns, id, rows);
}

SpanStats LedgerReport::at(const std::string& name) const {
  const auto it = spans.find(name);
  return it == spans.end() ? SpanStats{} : it->second;
}

double LedgerReport::share(std::string_view layer) const {
  const auto it = layer_self_ns.find(std::string(layer));
  if (it == layer_self_ns.end() || round_ns == 0) return 0;
  return static_cast<double>(it->second) / static_cast<double>(round_ns);
}

double LedgerReport::coverage() const {
  double sum = 0;
  for (const std::string_view layer : kLayers) sum += share(layer);
  return sum;
}

LedgerReport analyze(const std::vector<obs::Event>& events,
                     std::uint64_t since_ns) {
  std::map<std::uint32_t, std::string> names;
  {
    OwnNames& own = own_names();
    std::lock_guard<std::mutex> lock(own.mu);
    names = own.by_id;
  }
  struct Node {
    const obs::Event* event;
    const std::string* name;
    std::uint64_t child_ns = 0;
    bool in_round = false;  // has a round span among its ancestors
  };
  std::vector<Node> nodes;
  for (const obs::Event& e : events) {
    if (e.kind != obs::EventKind::kSpan || e.ts_ns < since_ns) continue;
    const auto it = names.find(e.name);
    if (it != names.end()) nodes.push_back({&e, &it->second});
  }
  // Per thread, by start; an enclosing span sorts before what it contains.
  std::sort(nodes.begin(), nodes.end(), [](const Node& x, const Node& y) {
    if (x.event->tid != y.event->tid) return x.event->tid < y.event->tid;
    if (x.event->ts_ns != y.event->ts_ns) return x.event->ts_ns < y.event->ts_ns;
    return x.event->dur_ns > y.event->dur_ns;
  });
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const obs::Event& e = *nodes[i].event;
    while (!stack.empty()) {
      const obs::Event& top = *nodes[stack.back()].event;
      if (top.tid == e.tid && e.ts_ns + e.dur_ns <= top.ts_ns + top.dur_ns) {
        break;
      }
      stack.pop_back();
    }
    if (!stack.empty()) {
      Node& parent = nodes[stack.back()];
      parent.child_ns += e.dur_ns;
      nodes[i].in_round = parent.in_round || *parent.name == kRoundSpan;
    }
    stack.push_back(i);
  }

  LedgerReport report;
  for (const Node& node : nodes) {
    const obs::Event& e = *node.event;
    const std::uint64_t self =
        e.dur_ns > node.child_ns ? e.dur_ns - node.child_ns : 0;
    SpanStats& stats = report.spans[*node.name];
    ++stats.calls;
    stats.total_ns += e.dur_ns;
    stats.self_ns += self;
    if (*node.name == kRoundSpan) {
      ++report.rounds;
      report.round_ns += e.dur_ns;
    } else {
      stats.rows += e.b;
      if (node.in_round) {
        report.layer_self_ns[std::string(layer_of(*node.name))] += self;
      }
    }
  }
  return report;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> span_intervals(
    const std::vector<obs::Event>& events,
    const std::vector<std::string_view>& names, std::uint64_t since_ns) {
  obs::Recorder& rec = obs::Recorder::global();
  std::vector<std::uint32_t> ids;
  for (const std::string_view name : names) ids.push_back(rec.intern(name));
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const obs::Event& e : events) {
    if (e.kind != obs::EventKind::kSpan || e.ts_ns < since_ns) continue;
    if (std::find(ids.begin(), ids.end(), e.name) == ids.end()) continue;
    out.emplace_back(e.ts_ns, e.ts_ns + e.dur_ns);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void print_table(const LedgerReport& report, const std::string& title) {
  const double round_ms = static_cast<double>(report.round_ns) / 1e6;
  std::printf("\n%s: %llu rounds, %.1f ms of round wall time\n",
              title.c_str(), static_cast<unsigned long long>(report.rounds),
              round_ms);
  std::printf("  %-34s %8s %12s %12s %14s %7s\n", "span", "calls", "total_ms",
              "self_ms", "rows/s", "share");
  for (const auto& [name, stats] : report.spans) {
    const double self_ms = static_cast<double>(stats.self_ns) / 1e6;
    const double rows_per_s =
        stats.self_ns == 0 ? 0 : static_cast<double>(stats.rows) * 1e9 /
                                     static_cast<double>(stats.self_ns);
    std::printf("  %-34s %8llu %12.3f %12.3f %14.4g %7.4f\n", name.c_str(),
                static_cast<unsigned long long>(stats.calls),
                static_cast<double>(stats.total_ns) / 1e6, self_ms, rows_per_s,
                round_ms > 0 ? self_ms / round_ms : 0.0);
  }
  std::printf("  blocking-path share by layer:");
  for (const std::string_view layer : kLayers) {
    std::printf(" %.*s=%.4f", static_cast<int>(layer.size()), layer.data(),
                report.share(layer));
  }
  std::printf("  (coverage %.4f)\n", report.coverage());
}

bool write_chrome_trace(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  obs::Recorder::global().write_chrome_trace(out);
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace roundbench
