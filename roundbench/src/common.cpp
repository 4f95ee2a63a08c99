#include <cstdio>

#include "ledger.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "workloads.h"

namespace roundbench {

harvest::store::Schema make_schema(std::size_t num_actions, std::size_t dim) {
  harvest::store::Schema schema;
  schema.decision_event = "serve";
  for (std::size_t i = 0; i < dim; ++i) {
    schema.context_fields.push_back("x" + std::to_string(i));
  }
  schema.action_field = "action";
  schema.reward_field = "reward";
  schema.propensity_field = "propensity";
  schema.num_actions = static_cast<std::uint32_t>(num_actions);
  schema.reward_lo = 0;
  schema.reward_hi = 1;
  return schema;
}

harvest::logs::ScavengeSpec make_spec(const harvest::store::Schema& schema) {
  harvest::logs::ScavengeSpec spec;
  spec.decision_event = schema.decision_event;
  spec.context_fields = schema.context_fields;
  spec.action_field = schema.action_field;
  spec.reward_field = schema.reward_field;
  spec.propensity_field = schema.propensity_field;
  spec.reward_transform = [](double r) { return r; };
  spec.num_actions = schema.num_actions;
  spec.reward_range = {schema.reward_lo, schema.reward_hi};
  return spec;
}

std::uint64_t now_ns() { return harvest::obs::Recorder::global().now_ns(); }

std::uint64_t timer_overhead_ns() {
  std::vector<double> pairs(1001);
  for (double& ns : pairs) {
    const std::uint64_t a = now_ns();
    ns = static_cast<double>(now_ns() - a);
  }
  return static_cast<std::uint64_t>(median(std::move(pairs)));
}

void add_end_to_end(Result& result, const EndToEnd& e2e) {
  result.add("setup_s", e2e.setup_s, "s");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  result.add("round_ms", e2e.round_ms, "ms");
  result.add("feedback_ms", e2e.feedback_ms, "ms");
  result.add("serve_mdps", e2e.serve_mdps, "Mdec/s");
  result.add("decide_mean_ns", e2e.decide_mean_ns, "ns");
  result.add("decide_p90_ns", e2e.decide_p90_ns, "ns");
  result.add("reward_final", e2e.reward_final, "reward");
}

void add_per_layer(Result& result, const PerLayer& l,
                   const LedgerReport& report) {
  result.add("serve.decide.ns", l.decide_ns, "ns");
  result.add("serve.decide.phase_ns", l.decide_phase_ns, "ns");
  result.add("serve.decide.p99_ns", l.decide_p99_ns, "ns");
  result.add("serve.decide.p999_ns", l.decide_p999_ns, "ns");
  result.add("serve.decide.max_ns", l.decide_max_ns, "ns");
  result.add("serve.tail.trainer_overlap_frac", l.tail_trainer_overlap_frac,
             "frac");
  result.add("serve.pacer.late_p99_ns", l.pacer_late_p99_ns, "ns");
  result.add("serve.drain.ns_per_row", l.drain_ns_per_row, "ns/row");
  result.add("serve.collect.ns_per_row", l.collect_ns_per_row, "ns/row");
  result.add("serve.train.ms", l.train_ms, "ms");
  result.add("serve.train.ns_per_row", l.train_ns_per_row, "ns/row");
  result.add("serve.publish.us", l.publish_us, "us");
  result.add("serve.persist.us", l.persist_us, "us");
  result.add("serve.swaps", l.swaps, "count");
  result.add("serve.reclaimed", l.reclaimed, "count");
  result.add("serve.retired_max", l.retired_max, "count");
  result.add("store.write.ns_per_row", l.write_ns_per_row, "ns/row");
  result.add("store.write.bytes_per_row", l.write_bytes_per_row, "B/row");
  result.add("store.open.ms", l.open_ms, "ms");
  result.add("store.blocks_pruned", l.blocks_pruned, "count");
  result.add("store.blocks_scanned", l.blocks_scanned, "count");
  result.add("logs.scavenge.ns_per_row", l.scavenge_ns_per_row, "ns/row");
  result.add("logs.scavenge.rows", l.scavenge_rows, "count");
  result.add("core.fit.ns_per_row", l.fit_ns_per_row, "ns/row");
  result.add("core.estimate.ips.ns_per_row_candidate", l.ips_ns,
             "ns/row/cand");
  result.add("core.estimate.snips.ns_per_row_candidate", l.snips_ns,
             "ns/row/cand");
  result.add("core.estimate.dr.ns_per_row_candidate", l.dr_ns, "ns/row/cand");
  result.add("design.plan.ms", l.plan_ms, "ms");
  for (const std::string_view layer : kLayers) {
    result.add(std::string(layer) + ".share", report.share(layer), "frac");
  }
  result.add("round.coverage", report.coverage(), "frac");
  result.add("obs.trace_overhead_frac", l.trace_overhead_frac, "frac");
}

void finish_trace(Result& result, const LedgerReport& report,
                  const Options& options, const std::string& title) {
  print_table(report, title);
  if (!options.trace_out.empty()) {
    result.check(write_chrome_trace(options.trace_out),
                 "cannot write Chrome trace " + options.trace_out);
    std::printf("  chrome trace: %s\n", options.trace_out.c_str());
  }
  const harvest::obs::Recorder& rec = harvest::obs::Recorder::global();
  result.check(rec.trace_evicted_total() == 0 && rec.ring_dropped_total() == 0,
               "flight recorder lost events; the ledger is incomplete");
  result.check(report.rounds > 0, "no traced round completed");
  result.check(report.coverage() >= 0.9,
               "layer spans cover only " + std::to_string(report.coverage()) +
                   " of round wall time (need >= 0.9)");
}

double overhead_frac(const std::vector<double>& traced,
                     const std::vector<double>& untraced) {
  const double base = median(untraced);
  return base > 0 ? median(traced) / base - 1 : 0;
}

double registry_counter(const char* name) {
  return harvest::obs::Registry::global().counter(name).value();
}

}  // namespace roundbench
