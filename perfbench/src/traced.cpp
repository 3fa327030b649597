#include "traced.hpp"

#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "repro/harness/checkpoint.hpp"
#include "repro/harness/fast_forward.hpp"
#include "repro/harness/run.hpp"
#include "repro/nas/trace_workload.hpp"
#include "repro/nas/workload.hpp"
#include "repro/omp/machine.hpp"
#include "repro/tracefmt/reader.hpp"
#include "repro/upmlib/upmlib.hpp"
#include "service_load.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using repro::harness::RunConfig;
using repro::harness::RunResult;
using repro::nas::UpmMode;
using Clock = std::chrono::steady_clock;

const std::vector<std::string> kFamilies = {"base", "upmlib", "irixmig",
                                            "recrep", "replay"};

/// Raw host time per layer of one cell, from spans the span driver records
/// around its calls into each layer.
struct Spans {
  double machine_create_ms = 0.0;
  double setup_ms = 0.0;
  double cold_start_ms = 0.0;
  double ff_probe_ms = 0.0;
  double ff_replay_ms = 0.0;
  double iteration_ms = 0.0;
  double migrate_ms = 0.0;
  std::uint64_t ff_probes = 0;
  std::uint64_t migrate_calls = 0;
  /// Engine ops executed inside Workload::iteration calls.
  std::uint64_t iteration_ops = 0;
  /// End-state digest times (us); negative when the layer is absent.
  double memsys_digest_us = -1.0;
  double kernel_digest_us = -1.0;
  double daemon_digest_us = -1.0;
  double counters_digest_us = -1.0;
  double upmlib_digest_us = -1.0;
  std::uint64_t ops_executed = 0;
  /// Time spent timing the digests above (not part of the cell).
  double digest_timing_ms = 0.0;
};

template <typename F>
double digest_us(F&& digest) {
  std::vector<double> us;
  std::uint64_t sink = 0;
  for (int rep = 0; rep < 15; ++rep) {
    const auto t0 = Clock::now();
    sink ^= digest();
    us.push_back(ms_since(t0) * 1000.0);
  }
  volatile std::uint64_t keep = sink;
  (void)keep;
  return median(us);
}

/// Mirrors harness::run_benchmark for an untraced, fault-free,
/// coherence-free cell through public calls only, timing each layer.
/// The result must equal run_benchmark's for the same config.
RunResult drive(const RunConfig& config, Spans& spans) {
  auto t0 = Clock::now();
  auto machine = repro::omp::Machine::create(config.machine);
  machine->set_placement(config.placement, config.seed);
  if (config.kernel_migration) {
    machine->enable_kernel_daemon(config.daemon);
  }
  spans.machine_create_ms = ms_since(t0);

  t0 = Clock::now();
  std::unique_ptr<repro::nas::Workload> workload;
  if (!config.replay.empty()) {
    workload = repro::nas::make_trace_workload(
        config.replay, repro::nas::TraceWorkloadOptions{config.pipeline});
  } else {
    repro::nas::WorkloadParams params = config.workload;
    params.compute_scale = config.compute_scale;
    workload = repro::nas::make_workload(config.benchmark, params);
  }
  workload->setup(*machine);
  const std::uint32_t iterations = config.iterations != 0
                                       ? config.iterations
                                       : workload->default_iterations();
  std::unique_ptr<repro::upm::Upmlib> upmlib;
  repro::nas::IterationContext ctx;
  ctx.mode = config.upm_mode;
  if (config.upm_mode != UpmMode::kOff) {
    upmlib = std::make_unique<repro::upm::Upmlib>(
        machine->mmci(), machine->runtime(), config.upm);
    workload->register_hot(*upmlib);
    ctx.upm = upmlib.get();
  }
  spans.setup_ms = ms_since(t0);

  t0 = Clock::now();
  workload->cold_start(*machine);
  if (upmlib != nullptr) {
    upmlib->reset_hot_counters();
  }
  machine->memory().reset_stats();
  machine->runtime().clear_records();
  spans.cold_start_ms = ms_since(t0);

  std::unique_ptr<repro::harness::FastForward> ff;
  if (!config.no_fast_forward && config.replay.empty()) {
    ff = std::make_unique<repro::harness::FastForward>(*machine, upmlib.get(),
                                                       nullptr);
  }
  RunResult result;
  result.label = config.label();
  result.benchmark = workload->name();
  repro::omp::Runtime& rt = machine->runtime();
  const repro::Ns start = rt.now();
  for (std::uint32_t step = 1; step <= iterations; ++step) {
    if (ff != nullptr) {
      t0 = Clock::now();
      ff->probe();
      spans.ff_probe_ms += ms_since(t0);
      ++spans.ff_probes;
      if (ff->ready()) {
        t0 = Clock::now();
        result.iterations_replayed =
            ff->replay(step, iterations, result.iteration_times);
        spans.ff_replay_ms += ms_since(t0);
        step += result.iterations_replayed;
        if (step > iterations) {
          break;
        }
      }
    }
    ++result.iterations_simulated;
    const repro::Ns iter_start = rt.now();
    const std::uint64_t ops_before = machine->engine().ops_executed();
    t0 = Clock::now();
    workload->iteration(*machine, ctx, step);
    spans.iteration_ms += ms_since(t0);
    spans.iteration_ops += machine->engine().ops_executed() - ops_before;
    if (config.upm_mode == UpmMode::kDistribution &&
        (step == 1 || upmlib->active())) {
      t0 = Clock::now();
      upmlib->migrate_memory();
      spans.migrate_ms += ms_since(t0);
      ++spans.migrate_calls;
      if (ff != nullptr) {
        ff->note_migration_pass();
      }
    }
    result.iteration_times.push_back(rt.now() - iter_start);
  }
  result.total = rt.now() - start;
  if (upmlib != nullptr) {
    result.upm_stats = upmlib->stats();
  }
  result.kernel_stats = machine->kernel().stats();
  if (machine->kernel().daemon() != nullptr) {
    result.daemon_stats = machine->kernel().daemon()->stats();
  }
  result.memory_totals = machine->memory().total_stats();
  spans.ops_executed = machine->engine().ops_executed();

  // The digests the fast-forward mixes on every probe, on the end state.
  t0 = Clock::now();
  const repro::Ns now = rt.now();
  spans.memsys_digest_us =
      digest_us([&] { return machine->memory().digest(now); });
  spans.kernel_digest_us =
      digest_us([&] { return machine->kernel().digest(now); });
  spans.counters_digest_us =
      digest_us([&] { return machine->kernel().counters().digest(); });
  if (const auto* daemon = machine->kernel().daemon(); daemon != nullptr) {
    spans.daemon_digest_us = digest_us([&] { return daemon->digest(now); });
  }
  if (upmlib != nullptr) {
    spans.upmlib_digest_us = digest_us([&] { return upmlib->digest(); });
  }
  spans.digest_timing_ms = ms_since(t0);
  return result;
}

/// Sum and count of calibrated values, with the raw sum beside it.
struct Acc {
  double sum = 0.0;
  double raw = 0.0;
  std::uint64_t n = 0;

  void add(const HostClock& clock, std::size_t cal, double value,
           std::uint64_t count = 1) {
    sum += clock.normalize(value, cal);
    raw += value;
    n += count;
  }
  [[nodiscard]] double mean() const {
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  }
  [[nodiscard]] double raw_mean() const {
    return n == 0 ? 0.0 : raw / static_cast<double>(n);
  }
};

void set_timing(Report& report, const std::string& name, const Acc& acc,
                const std::string& unit) {
  report.set(name, acc.mean(), unit);
  report.set("host." + name, acc.raw_mean(), unit);
}

struct GoldenEntry {
  std::string digest;
  std::string migrations;
};

std::map<std::string, GoldenEntry> load_golden(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read golden digests " + path);
  }
  std::map<std::string, GoldenEntry> golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string benchmark;
    std::string label;
    GoldenEntry entry;
    fields >> benchmark >> label >> entry.digest >> entry.migrations;
    golden[benchmark + " " + label] = entry;
  }
  return golden;
}

std::string migration_vector(const RunResult& result) {
  std::string out;
  for (const auto& m : result.iteration_metrics) {
    if (m.iteration >= 1) {
      out += (out.empty() ? "" : ",") + std::to_string(m.migrations);
    }
  }
  return out.empty() ? "-" : out;
}

/// The golden matrix (every benchmark x {ft,rr,wc} x {base,upmlib}, 3
/// iterations, size scale 0.25) traced against the checked-in digests
/// and migration vectors, and untraced for the tracing overhead.
void check_golden(const Options& opts, HostClock& clock, Report& report) {
  const auto golden = load_golden(opts.golden);
  report.check(golden.size() == 30, "golden file does not list 30 cells");
  double traced_ms = 0.0;
  double plain_ms = 0.0;
  for (const std::string& benchmark : repro::nas::workload_names()) {
    for (const std::string placement : {"ft", "rr", "wc"}) {
      for (const UpmMode mode : {UpmMode::kOff, UpmMode::kDistribution}) {
        RunConfig config;
        config.benchmark = benchmark;
        config.placement = placement;
        config.upm_mode = mode;
        config.iterations = 3;
        config.workload.size_scale = 0.25;
        const std::size_t cal = clock.calibrate();
        auto t0 = Clock::now();
        const RunResult plain = repro::harness::run_benchmark(config);
        plain_ms += clock.normalize(ms_since(t0), cal);
        config.trace = true;
        t0 = Clock::now();
        const RunResult traced = repro::harness::run_benchmark(config);
        traced_ms += clock.normalize(ms_since(t0), cal);
        const std::string key = benchmark + " " + traced.label;
        const auto it = golden.find(key);
        report.check(it != golden.end() &&
                         it->second.digest == traced.trace_digest &&
                         it->second.migrations == migration_vector(traced),
                     "golden cell " + key + " diverged (digest " +
                         traced.trace_digest + ")");
        report.check(plain.total == traced.total &&
                         plain.memory_totals.remote_miss_lines ==
                             traced.memory_totals.remote_miss_lines,
                     "tracing changed the simulation of " + key);
      }
    }
  }
  report.set("trace.overhead_frac", (traced_ms - plain_ms) / plain_ms,
             "fraction");
}

/// Dumps, then decodes every chunk of, each RTRC trace.
void measure_tracefmt(const std::vector<Dump>& dumps, HostClock& clock,
                      Report& report) {
  Acc dump_ms;
  double decode_ms = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t bytes = 0;
  for (const Dump& dump : dumps) {
    const std::size_t cal = clock.calibrate();
    auto t0 = Clock::now();
    (void)repro::harness::dump_trace(dump.config, dump.path);
    dump_ms.add(clock, cal, ms_since(t0));
    const repro::tracefmt::TraceReader reader(dump.path);
    std::vector<repro::tracefmt::Record> records;
    t0 = Clock::now();
    for (std::size_t c = 0; c < reader.num_chunks(); ++c) {
      reader.decode_chunk(c, records);
    }
    decode_ms += clock.normalize(ms_since(t0), cal);
    ops += reader.total_ops();
    bytes += reader.file_bytes();
  }
  set_timing(report, "tracefmt.dump_ms", dump_ms, "ms");
  report.set("tracefmt.decode_mops",
             static_cast<double>(ops) / (decode_ms * 1000.0), "Mop/s");
  report.set("tracefmt.bytes_per_op",
             static_cast<double>(bytes) / static_cast<double>(ops), "B/op");
}

struct CellTotals {
  Acc machine_create, setup, cold_start, iteration, migrate, ff_probe,
      ff_replay, memsys_digest, kernel_digest, daemon_digest,
      counters_digest, upmlib_digest;
  std::map<std::string, Acc> family_ns;  // iteration ns, n = ops
  double plain_ms = 0.0;
  double driver_ms = 0.0;
  std::uint64_t ff_probes = 0;
  std::uint64_t timed_iterations = 0;
  std::uint64_t replayed_iterations = 0;
  std::map<std::string, std::uint64_t> counts;
};

void add_cell(const HostClock& clock, std::size_t cal, const Spans& s,
              const RunResult& r, const std::string& family, CellTotals& t) {
  t.machine_create.add(clock, cal, s.machine_create_ms);
  t.setup.add(clock, cal, s.setup_ms);
  t.cold_start.add(clock, cal, s.cold_start_ms);
  t.iteration.add(clock, cal, s.iteration_ms, r.iterations_simulated);
  t.migrate.add(clock, cal, s.migrate_ms, s.migrate_calls);
  t.ff_probe.add(clock, cal, s.ff_probe_ms);
  t.ff_replay.add(clock, cal, s.ff_replay_ms);
  t.family_ns[family].add(clock, cal, s.iteration_ms * 1e6, s.iteration_ops);
  const auto digest = [&](Acc& acc, double us) {
    if (us >= 0.0) {
      acc.add(clock, cal, us);
    }
  };
  digest(t.memsys_digest, s.memsys_digest_us);
  digest(t.kernel_digest, s.kernel_digest_us);
  digest(t.daemon_digest, s.daemon_digest_us);
  digest(t.counters_digest, s.counters_digest_us);
  digest(t.upmlib_digest, s.upmlib_digest_us);
  t.ff_probes += s.ff_probes;
  t.timed_iterations += r.iteration_times.size();
  t.replayed_iterations += r.iterations_replayed;
  const auto& m = r.memory_totals;
  const auto& u = r.upm_stats;
  t.counts["sim.ops_executed"] += s.ops_executed;
  t.counts["memsys.hit_lines"] += m.hit_lines;
  t.counts["memsys.local_miss_lines"] += m.local_miss_lines;
  t.counts["memsys.remote_miss_lines"] += m.remote_miss_lines;
  t.counts["memsys.tlb_misses"] += m.tlb_misses;
  t.counts["os.page_faults"] += r.kernel_stats.page_faults;
  t.counts["os.migrations"] += r.kernel_stats.migrations;
  t.counts["os.daemon_interrupts"] += r.daemon_stats.interrupts;
  t.counts["os.daemon_migrations"] += r.daemon_stats.migrations;
  t.counts["upmlib.migrations"] +=
      u.distribution_migrations + u.replay_migrations + u.undo_migrations;
}

/// Runs each cell through run_benchmark and through the span driver,
/// checks they agree, and accumulates the layer totals.
void drive_cells(const std::vector<Cell>& cells, HostClock& clock,
                 Report& report, CellTotals& totals) {
  for (const Cell& cell : cells) {
    const std::size_t cal = clock.calibrate();
    auto t0 = Clock::now();
    const RunResult reference = repro::harness::run_benchmark(cell.config);
    totals.plain_ms += ms_since(t0);
    Spans spans;
    t0 = Clock::now();
    const RunResult driven = drive(cell.config, spans);
    totals.driver_ms += ms_since(t0) - spans.digest_timing_ms;
    const std::string want = repro::harness::encode_result(0, reference);
    report.check(repro::harness::encode_result(0, driven) == want,
                 cell.key() + ": span driver differs from run_benchmark");
    if (!cell.config.replay.empty()) {
      // Replay never fast-forwards, so neither may its direct twin:
      // the iteration split is part of the result.
      RunConfig direct = cell.config;
      direct.replay.clear();
      direct.no_fast_forward = true;
      report.check(repro::harness::encode_result(
                       0, repro::harness::run_benchmark(direct)) == want,
                   cell.key() + ": replay differs from direct simulation");
    }
    add_cell(clock, cal, spans, driven, cell.family, totals);
  }
}

}  // namespace

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> timings = {
        "omp.machine_create_ms",    "nas.setup_ms",
        "nas.cold_start_ms",        "omp.iteration_ms",
        "harness.ff_probe_ms",      "harness.ff_replay_ms",
        "memsys.digest_us",         "os.kernel_digest_us",
        "os.daemon_digest_us",      "vm.counters_digest_us",
        "upmlib.digest_us",         "upmlib.migrate_ms",
        "tracefmt.dump_ms",         "service.recover_ms",
        "service.cache_lookup_us",  "service.cache_insert_us",
        "service.frame_roundtrip_us", "harness.decode_result_us",
        "service.cold_overhead_ms"};
    std::vector<std::string> out = timings;
    for (const std::string& family : kFamilies) {
      out.push_back("omp.ns_per_op." + family);
    }
    for (const char* name :
         {"omp.ns_per_op.irixmig_minus_base", "harness.ff_probes",
          "harness.ff_replayed_frac", "tracefmt.decode_mops",
          "tracefmt.bytes_per_op", "trace.overhead_frac",
          "service.cache_hit_frac", "service.wasted_dispatch_frac",
          "sim.ops_executed", "memsys.hit_lines", "memsys.local_miss_lines",
          "memsys.remote_miss_lines", "memsys.tlb_misses", "os.page_faults",
          "os.migrations", "os.daemon_interrupts", "os.daemon_migrations",
          "upmlib.migrations", "error_rate", "bench.span_overhead_frac",
          "host.calib_ms", "host.calib_spread"}) {
      out.emplace_back(name);
    }
    for (const std::string& name : timings) {
      out.push_back("host." + name);
    }
    return out;
  }();
  return names;
}

void run_traced(const Options& opts, HostClock& clock, Report& report) {
  ScratchDir scratch(opts.scratch_root, "traced");
  std::vector<Cell> cells;
  std::vector<Dump> dumps;
  std::size_t service_cycles = 8;
  if (opts.workload == "steady_grid") {
    cells = steady_grid(opts.seed).cells;
  } else if (opts.workload == "full_sim_grid") {
    const GridDef grid = full_sim_grid(scratch.path());
    cells = grid.cells;
    for (Cell& twin : irixmig_base_twins(grid)) {
      cells.push_back(std::move(twin));
    }
    dumps = grid.dumps;
  } else {
    cells = service_cells(opts.seed);
    service_cycles = 24;
  }
  if (dumps.empty()) {
    // The workload bypasses RTRC; measure the format on a golden-size
    // dump so the layer is still covered.
    RunConfig config;
    config.benchmark = "CG";
    config.iterations = 3;
    config.workload.size_scale = 0.25;
    dumps.push_back(Dump{config, scratch.path() + "/CG.rtrc"});
  }

  check_golden(opts, clock, report);
  measure_tracefmt(dumps, clock, report);
  CellTotals t;
  drive_cells(cells, clock, report, t);
  trace_service(opts, clock, report, service_cycles);

  set_timing(report, "omp.machine_create_ms", t.machine_create, "ms");
  set_timing(report, "nas.setup_ms", t.setup, "ms");
  set_timing(report, "nas.cold_start_ms", t.cold_start, "ms");
  set_timing(report, "omp.iteration_ms", t.iteration, "ms");
  set_timing(report, "harness.ff_probe_ms", t.ff_probe, "ms");
  set_timing(report, "harness.ff_replay_ms", t.ff_replay, "ms");
  set_timing(report, "memsys.digest_us", t.memsys_digest, "us");
  set_timing(report, "os.kernel_digest_us", t.kernel_digest, "us");
  set_timing(report, "os.daemon_digest_us", t.daemon_digest, "us");
  set_timing(report, "vm.counters_digest_us", t.counters_digest, "us");
  set_timing(report, "upmlib.digest_us", t.upmlib_digest, "us");
  set_timing(report, "upmlib.migrate_ms", t.migrate, "ms");
  for (const std::string& family : kFamilies) {
    report.set("omp.ns_per_op." + family, t.family_ns[family].mean(), "ns/op");
  }
  const double base = t.family_ns["base"].mean();
  const double irixmig = t.family_ns["irixmig"].mean();
  report.set("omp.ns_per_op.irixmig_minus_base",
             base > 0.0 && irixmig > 0.0 ? irixmig - base : 0.0, "ns/op");
  report.set("harness.ff_probes", static_cast<double>(t.ff_probes), "count");
  report.set("harness.ff_replayed_frac",
             static_cast<double>(t.replayed_iterations) /
                 static_cast<double>(t.timed_iterations),
             "fraction");
  for (const auto& [name, count] : t.counts) {
    report.set(name, static_cast<double>(count), "count");
  }
  report.set("bench.span_overhead_frac",
             (t.driver_ms - t.plain_ms) / t.plain_ms, "fraction");
  std::cout << opts.workload << " traced: " << cells.size()
            << " cells through the span driver\n";
  for (const std::string& name : per_layer_names()) {
    if (report.has(name)) {
      std::cout << "  " << name << " = " << report.value(name) << "\n";
    }
  }
  report.check(scratch.remove(), "traced scratch directory left behind");
}

}  // namespace perfbench
