#include "repro/harness/json.hpp"

#include <sys/resource.h>

#include "repro/common/atomic_file.hpp"
#include "repro/common/json.hpp"

namespace repro::harness {

namespace {

void append_results(json::Writer& w, const std::vector<RunResult>& results) {
  w.begin_array();
  for (const RunResult& r : results) {
    const memsys::ProcStats& mem = r.memory_totals;
    const upm::UpmStats& upm = r.upm_stats;
    w.begin_object().field("label", r.label).field("benchmark", r.benchmark);
    w.field("seconds", r.seconds()).field("total_ns", r.total);
    w.field("iterations", r.iteration_times.size());
    w.field("iterations_simulated", r.iterations_simulated);
    w.field("iterations_replayed", r.iterations_replayed);
    w.field("mean_iteration_last75_ns", r.mean_iteration_last(0.75));
    w.field("remote_fraction", mem.remote_fraction());
    w.field("queue_wait_ns", mem.queue_wait).field("hit_lines", mem.hit_lines);
    w.field("local_miss_lines", mem.local_miss_lines);
    w.field("remote_miss_lines", mem.remote_miss_lines);
    w.field("daemon_migrations", r.daemon_stats.migrations);
    w.field("upm_distribution_migrations", upm.distribution_migrations);
    w.field("upm_replay_migrations", upm.replay_migrations);
    w.field("upm_undo_migrations", upm.undo_migrations);
    w.field("upm_cost_ns", upm.distribution_cost + upm.recrep_cost);
    w.field("upm_busy_retries", upm.busy_retries);
    w.field("upm_give_ups", upm.give_ups);
    w.field("upm_hysteresis_deferrals", upm.hysteresis_deferrals);
    w.field("kernel_busy_migrations", r.kernel_stats.busy_migrations);
    w.field("daemon_deferred_busy", r.daemon_stats.deferred_busy);
    w.field("fault_rate", r.fault_rate);
    w.field("fault_counter_corruptions", r.fault_stats.counter_corruptions);
    w.field("fault_busy_rejections", r.fault_stats.busy_rejections);
    w.field("fault_slowdowns", r.fault_stats.slowdowns);
    w.field("fault_preemptions", r.fault_stats.preemptions);
    w.field("fault_injected_total", r.fault_stats.injected_total());
    if (r.coherence_enabled) {
      // Emitted only for coherence cells: page-grain rows (and every
      // pre-coherence baseline JSON) keep their schema.
      const coherence::CoherenceStats& c = r.coherence_totals;
      w.field("coherence_hit_lines", c.hit_lines);
      w.field("coherence_cold_miss_lines", c.cold_miss_lines);
      w.field("coherence_capacity_miss_lines", c.capacity_miss_lines);
      w.field("coherence_miss_lines", c.coherence_miss_lines);
      w.field("coherence_miss_rate", c.coherence_miss_rate());
      w.field("coherence_upgrades", c.upgrades);
      w.field("coherence_invalidations", c.invalidations_sent);
      w.field("coherence_writebacks", c.writebacks);
    }
    if (!r.trace_digest.empty()) {
      w.field("trace_digest", r.trace_digest);
      w.key("trace_migrations_per_iteration").begin_array();
      for (const trace::IterationMetrics& m : r.iteration_metrics) {
        w.value(m.migrations);
      }
      w.end_array().key("trace_queue_p95_ns").begin_array();
      for (const trace::IterationMetrics& m : r.iteration_metrics) {
        w.value(m.queue_backlog_p95);
      }
      w.end_array().key("trace_faults_per_iteration").begin_array();
      for (const trace::IterationMetrics& m : r.iteration_metrics) {
        w.value(m.faults_injected);
      }
      w.end_array();
    }
    w.end_object();
  }
  w.end_array();
}

void append_field(json::Writer& w, const BenchField& field) {
  w.key(field.first);
  std::visit([&w](auto value) { w.value(value); }, field.second);
}

}  // namespace

std::string results_to_json(const std::vector<RunResult>& results) {
  json::Writer w;
  append_results(w, results);
  return w.finish();
}

void write_results_json(const std::string& path, const std::string& bench,
                        const std::vector<RunResult>& results) {
  json::Writer w;
  w.begin_object().field("bench", bench).key("results");
  append_results(w, results);
  w.end_object();
  atomic_write_file(path, w.finish());
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

void write_bench_rows(const std::string& path, std::string_view executable,
                      const std::vector<BenchRow>& rows,
                      const std::vector<BenchField>& context) {
  json::Writer w;
  w.begin_object().key("context").begin_object();
  w.field("executable", executable);
  for (const BenchField& field : context) {
    append_field(w, field);
  }
  w.field("peak_rss_mib", peak_rss_mib()).end_object();
  w.key("benchmarks").begin_array();
  for (const BenchRow& row : rows) {
    w.begin_object().field("name", row.name);
    w.field("run_name", row.name).field("run_type", "iteration");
    w.field("repetitions", 1).field("iterations", row.iterations);
    if (row.host_ms.has_value()) {
      w.field("real_time", *row.host_ms).field("cpu_time", *row.host_ms);
      w.field("time_unit", "ms");
    }
    for (const BenchField& field : row.fields) {
      append_field(w, field);
    }
    w.end_object();
  }
  w.end_array().end_object();
  atomic_write_file(path, w.finish());
}

}  // namespace repro::harness
