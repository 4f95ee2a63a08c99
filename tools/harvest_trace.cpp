// harvest_trace — offline analyzer for flight-recorder trace dumps.
//
// Ingests the Chrome Trace Event JSON the repo emits (bench --trace-out
// trace.json, harvest_inspect --trace t.json), including the pool/store/
// fault events recorded off the span API, in any layout — one event per
// line as written, flattened, or pretty-printed — and reports:
//   1. per-stage aggregate timings (count / total / mean / max per name),
//      plus a per-name tally of instant events (e.g. store.prune_block),
//   2. the top-N slowest individual spans,
//   3. per-worker utilization (from par.task events),
//   4. the critical path of the longest root span — the chain of slowest
//      descendants, with self-time per hop.
//
// Nesting comes from explicit parent ids when present (scope spans) and
// interval containment within a thread otherwise (recorder-native spans).
//
// Usage:
//   harvest_trace trace.json [--top 10] [--stage-prefix pipeline.]
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/flags.h"
#include "util/json.h"
#include "util/string_util.h"
#include "util/table.h"

namespace {

using harvest::util::Flags;
using harvest::util::Table;
using harvest::util::format_double;
namespace json = harvest::util::json;

/// One duration event. Times are in microseconds from the trace epoch.
struct Span {
  std::string name;
  double ts = 0;
  double dur = 0;
  int tid = 0;
  std::uint64_t id = 0;      // 0 when the event carries no id
  std::uint64_t parent = 0;  // 0 = root / unknown
  bool has_ids = false;
};

struct Trace {
  std::vector<Span> spans;
  std::map<int, std::string> thread_names;
  std::map<std::string, std::size_t> instants_by_name;
  std::size_t instants = 0;
  std::size_t counters = 0;
};

/// `obj[key]` as a number; nullopt when absent or not a number.
std::optional<double> number(const json::Value& obj, std::string_view key) {
  const json::Value* v = obj.find(key);
  return v != nullptr ? v->as_double() : std::nullopt;
}

std::optional<std::uint64_t> uint_arg(const json::Value* args,
                                      std::string_view key) {
  const json::Value* v = args != nullptr ? args->find(key) : nullptr;
  return v != nullptr ? v->as_uint64() : std::nullopt;
}

/// Reads a whole Chrome trace document. Throws json::Error on malformed
/// JSON and std::runtime_error when the JSON is not Trace Event shaped.
/// The recorder keeps at most 2^18 events, so the document stays bounded.
Trace parse_trace(const std::string& text, const std::string& origin) {
  const json::Value root = json::parse(text, origin);
  const json::Value* events = root.find("traceEvents");
  if (events == nullptr || events->as_array() == nullptr) {
    throw std::runtime_error(origin + ": no \"traceEvents\" array");
  }
  Trace trace;
  for (const json::Value& event : *events->as_array()) {
    const json::Value* name_value = event.find("name");
    if (name_value == nullptr || name_value->as_string() == nullptr) continue;
    const std::string& name = *name_value->as_string();
    const json::Value* ph_value = event.find("ph");
    if (ph_value == nullptr || ph_value->as_string() == nullptr) {
      throw std::runtime_error(origin + ": event \"" + name + "\" has no ph");
    }
    const std::string& ph = *ph_value->as_string();
    const int tid = static_cast<int>(number(event, "tid").value_or(0));
    const json::Value* args = event.find("args");
    if (ph == "M") {
      // thread_name metadata: args.name holds the label.
      const json::Value* label = args != nullptr ? args->find("name") : nullptr;
      if (label != nullptr && label->as_string() != nullptr) {
        trace.thread_names[tid] = *label->as_string();
      }
      continue;
    }
    if (ph == "i") {
      ++trace.instants;
      ++trace.instants_by_name[name];
      continue;
    }
    if (ph == "C") {
      ++trace.counters;
      continue;
    }
    if (ph != "X") continue;
    Span span;
    span.name = name;
    span.tid = tid;
    span.ts = number(event, "ts").value_or(0);
    span.dur = number(event, "dur").value_or(0);
    if (const auto id = uint_arg(args, "id")) {
      span.id = *id;
      span.parent = uint_arg(args, "parent").value_or(0);
      span.has_ids = true;
    }
    trace.spans.push_back(std::move(span));
  }
  return trace;
}

// --- nesting -------------------------------------------------------------

/// children[i] lists span indices nested directly under span i; `roots`
/// lists top-level spans. Explicit parent ids win; spans without ids nest
/// by interval containment within their thread.
struct Forest {
  std::vector<std::vector<std::size_t>> children;
  std::vector<std::size_t> roots;
};

Forest build_forest(const std::vector<Span>& spans) {
  Forest forest;
  forest.children.resize(spans.size());
  std::map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].has_ids && spans[i].id != 0) by_id[spans[i].id] = i;
  }
  // Containment pass, per tid: sweep by start time keeping a stack of open
  // spans; the innermost open interval that contains a span is its parent.
  std::map<int, std::vector<std::size_t>> by_tid;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_tid[spans[i].tid].push_back(i);
  }
  std::vector<std::optional<std::size_t>> parent_of(spans.size());
  for (auto& [tid, indices] : by_tid) {
    std::sort(indices.begin(), indices.end(),
              [&](std::size_t x, std::size_t y) {
                if (spans[x].ts != spans[y].ts) {
                  return spans[x].ts < spans[y].ts;
                }
                return spans[x].dur > spans[y].dur;  // outermost first
              });
    std::vector<std::size_t> stack;
    for (const std::size_t i : indices) {
      while (!stack.empty() &&
             spans[stack.back()].ts + spans[stack.back()].dur <
                 spans[i].ts + spans[i].dur) {
        stack.pop_back();
      }
      if (!stack.empty()) parent_of[i] = stack.back();
      stack.push_back(i);
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::optional<std::size_t> parent;
    if (spans[i].has_ids && spans[i].parent != 0) {
      const auto it = by_id.find(spans[i].parent);
      if (it != by_id.end()) parent = it->second;
    } else if (!spans[i].has_ids) {
      parent = parent_of[i];
    }
    if (parent) {
      forest.children[*parent].push_back(i);
    } else {
      forest.roots.push_back(i);
    }
  }
  return forest;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.positional().empty()) {
    std::cerr << "usage: harvest_trace <trace.json> [--top N]\n"
                 "                     [--stage-prefix PFX]\n";
    return 2;
  }
  const auto top_n =
      static_cast<std::size_t>(std::max<std::int64_t>(
          flags.get_int("top", 10), 1));
  const std::string stage_prefix = flags.get_string("stage-prefix", "");

  const std::string& path = flags.positional().front();
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    std::cerr << "cannot open " << path << "\n";
    return 1;
  }
  std::ostringstream text;
  text << file.rdbuf();
  Trace trace;
  try {
    trace = parse_trace(text.str(), path);
  } catch (const std::exception& e) {
    std::cerr << "not a Chrome trace: " << e.what() << "\n";
    return 1;
  }
  if (trace.spans.empty()) {
    std::cerr << "trace holds no duration events\n";
    return 1;
  }

  double t_min = trace.spans.front().ts;
  double t_max = 0;
  for (const auto& s : trace.spans) {
    t_min = std::min(t_min, s.ts);
    t_max = std::max(t_max, s.ts + s.dur);
  }
  const double wall_us = t_max - t_min;
  std::cout << "trace: " << trace.spans.size() << " spans, "
            << trace.instants << " instants, " << trace.counters
            << " counter samples over "
            << format_double(wall_us / 1000.0, 3) << " ms\n";

  // 1. Per-stage aggregates.
  struct Agg {
    std::size_t count = 0;
    double total = 0, max = 0;
  };
  std::map<std::string, Agg> stages;
  for (const auto& s : trace.spans) {
    if (!stage_prefix.empty() && s.name.rfind(stage_prefix, 0) != 0) {
      continue;
    }
    Agg& agg = stages[s.name];
    ++agg.count;
    agg.total += s.dur;
    agg.max = std::max(agg.max, s.dur);
  }
  std::vector<std::pair<std::string, Agg>> ordered(stages.begin(),
                                                   stages.end());
  std::sort(ordered.begin(), ordered.end(), [](const auto& x, const auto& y) {
    return x.second.total > y.second.total;
  });
  std::cout << "\n== per-stage aggregate timings ==\n";
  Table stage_table({"stage", "count", "total ms", "mean us", "max us"});
  for (const auto& [name, agg] : ordered) {
    stage_table.add_row(
        {name, std::to_string(agg.count),
         format_double(agg.total / 1000.0, 3),
         format_double(agg.total / static_cast<double>(agg.count), 1),
         format_double(agg.max, 1)});
  }
  stage_table.print(std::cout);

  // 1b. Instant events by name (store.prune_block, fault injections, ...).
  // Zero-duration marks never show in the timing table, but their counts
  // are the whole story for events like zone-map pruning.
  if (!trace.instants_by_name.empty()) {
    std::vector<std::pair<std::string, std::size_t>> marks(
        trace.instants_by_name.begin(), trace.instants_by_name.end());
    std::sort(marks.begin(), marks.end(), [](const auto& x, const auto& y) {
      if (x.second != y.second) return x.second > y.second;
      return x.first < y.first;
    });
    std::cout << "\n== instant events ==\n";
    Table instant_table({"event", "count"});
    for (const auto& [name, count] : marks) {
      instant_table.add_row({name, std::to_string(count)});
    }
    instant_table.print(std::cout);
  }

  // 2. Top-N slowest spans.
  std::vector<std::size_t> slowest(trace.spans.size());
  for (std::size_t i = 0; i < slowest.size(); ++i) slowest[i] = i;
  std::sort(slowest.begin(), slowest.end(), [&](std::size_t x, std::size_t y) {
    return trace.spans[x].dur > trace.spans[y].dur;
  });
  std::cout << "\n== top " << std::min(top_n, slowest.size())
            << " slowest spans ==\n";
  Table slow_table({"span", "thread", "start ms", "duration us"});
  for (std::size_t k = 0; k < std::min(top_n, slowest.size()); ++k) {
    const Span& s = trace.spans[slowest[k]];
    const auto tn = trace.thread_names.find(s.tid);
    slow_table.add_row({s.name,
                        tn != trace.thread_names.end()
                            ? tn->second
                            : "tid-" + std::to_string(s.tid),
                        format_double((s.ts - t_min) / 1000.0, 3),
                        format_double(s.dur, 1)});
  }
  slow_table.print(std::cout);

  // 3. Per-worker utilization from par.task events.
  struct Worker {
    std::size_t tasks = 0;
    double busy = 0;
  };
  std::map<int, Worker> workers;
  for (const auto& s : trace.spans) {
    if (s.name != "par.task") continue;
    Worker& w = workers[s.tid];
    ++w.tasks;
    w.busy += s.dur;
  }
  if (!workers.empty() && wall_us > 0) {
    std::cout << "\n== per-worker utilization (par.task) ==\n";
    Table worker_table({"thread", "tasks", "busy ms", "utilization"});
    for (const auto& [tid, w] : workers) {
      const auto tn = trace.thread_names.find(tid);
      worker_table.add_row(
          {tn != trace.thread_names.end() ? tn->second
                                          : "tid-" + std::to_string(tid),
           std::to_string(w.tasks), format_double(w.busy / 1000.0, 3),
           format_double(100.0 * w.busy / wall_us, 1) + "%"});
    }
    worker_table.print(std::cout);
  }

  // 4. Critical path: from the longest root span, repeatedly descend into
  // the slowest direct child; the gap between a hop and its children is
  // self-time.
  const Forest forest = build_forest(trace.spans);
  if (!forest.roots.empty()) {
    std::size_t at = forest.roots.front();
    for (const std::size_t r : forest.roots) {
      if (trace.spans[r].dur > trace.spans[at].dur) at = r;
    }
    std::cout << "\n== critical path (longest root, slowest child chain) "
                 "==\n";
    for (;;) {
      const Span& s = trace.spans[at];
      double child_total = 0;
      for (const std::size_t c : forest.children[at]) {
        child_total += trace.spans[c].dur;
      }
      const double self_us = std::max(0.0, s.dur - child_total);
      std::cout << s.name << "  " << format_double(s.dur / 1000.0, 3)
                << " ms (self " << format_double(self_us / 1000.0, 3)
                << " ms)\n";
      if (forest.children[at].empty()) break;
      std::size_t next = forest.children[at].front();
      for (const std::size_t c : forest.children[at]) {
        if (trace.spans[c].dur > trace.spans[next].dur) next = c;
      }
      std::cout << "  \\-> ";
      at = next;
    }
  }
  return 0;
}
