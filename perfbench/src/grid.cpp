#include "grid.hpp"

#include <algorithm>
#include <exception>
#include <iostream>
#include <numeric>
#include <random>

#include "repro/harness/checkpoint.hpp"
#include "repro/harness/run.hpp"
#include "workloads.hpp"

namespace perfbench {

using repro::harness::RunResult;

void set_latency(Report& report, const HostClock& clock,
                 const std::string& name, const Series& samples,
                 const std::string& unit) {
  const std::vector<double> calibrated = clock.normalize(samples);
  report.set_percentile(name + ".p50", percentile(calibrated, 50.0), unit);
  report.set_percentile(name + ".p90", percentile(calibrated, 90.0), unit);
  std::cout << "    raw p50 = " << percentile(samples.raw, 50.0).value
            << ", p90 = " << percentile(samples.raw, 90.0).value << " "
            << unit << "\n";
}

void set_setup(Report& report, const HostClock& clock, const Series& setup) {
  report.set("setup_s", median(clock.normalize(setup)), "s");
  std::cout << "  setup_s = " << report.value("setup_s")
            << " s (n=" << setup.size() << ", raw " << median(setup.raw)
            << " s)\n";
}

void report_calibration(const HostClock& clock, Report& report) {
  const std::vector<double>& calib = clock.calibrations_ms();
  const Quartiles q = quartiles(calib);
  report.set("host.calib_ms", q.q2, "ms");
  report.set("host.calib_spread", q.spread(), "fraction");
  std::cout << "  host.calib_ms p50 = " << q.q2 << " ms (n=" << calib.size()
            << ", q1=" << q.q1 << ", q3=" << q.q3
            << ", spread=" << q.spread() << ", nominal "
            << HostClock::kNominalMs << " ms)\n";
  if (q.spread() > HostClock::kDriftLimit) {
    std::cout << "  CALIBRATION DRIFT: spread " << q.spread()
              << " exceeds the limit " << HostClock::kDriftLimit
              << "; calibrated values of this run are suspect\n";
  }
}

void run_grid(const Options& opts, HostClock& clock, Report& report) {
  ScratchDir scratch(opts.scratch_root, "grid");
  const GridDef grid = opts.workload == "steady_grid"
                           ? steady_grid(opts.seed)
                           : full_sim_grid(scratch.path());
  const std::string checkpoints = scratch.path() + "/checkpoints";

  // Set-up: the RTRC dumps plus one discarded pass over the workload's
  // benchmarks, repeated so its median is steady.
  Series setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::size_t cal = clock.calibrate();
    const auto t0 = std::chrono::steady_clock::now();
    for (const Dump& dump : grid.dumps) {
      (void)repro::harness::dump_trace(dump.config, dump.path);
    }
    for (const Cell& cell : grid.warmup) {
      (void)repro::harness::run_benchmark(cell.config);
    }
    setup.add(ms_since(t0) / 1000.0, cal);
  }

  const std::size_t n = grid.cells.size();
  std::vector<std::uint64_t> identity(n);
  for (std::size_t i = 0; i < n; ++i) {
    identity[i] = repro::harness::config_identity(grid.cells[i].config);
  }
  std::vector<Series> per_cell(n);
  std::vector<std::string> reference(n);
  Series cells;
  Series cold;
  Series warm;
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(opts.seed);
  const auto start = std::chrono::steady_clock::now();
  double last_round_ms = 0.0;
  for (int round = 0;
       round < kMinRounds || ms_since(start) + last_round_ms <=
                                 opts.seconds * 1000.0;
       ++round) {
    const auto round_start = std::chrono::steady_clock::now();
    std::shuffle(order.begin(), order.end(), rng);
    for (const std::size_t i : order) {
      const Cell& cell = grid.cells[i];
      const std::size_t cal = clock.calibrate();
      std::string fingerprint;
      RunResult result;
      try {
        const auto t0 = std::chrono::steady_clock::now();
        result = repro::harness::run_benchmark(cell.config);
        const double run_ms = ms_since(t0);
        const auto t1 = std::chrono::steady_clock::now();
        repro::harness::save_checkpoint(checkpoints, cell.config, result);
        const double save_ms = ms_since(t1);
        per_cell[i].add(run_ms, cal);
        cells.add(run_ms, cal);
        cold.add(run_ms + save_ms, cal);
        fingerprint = repro::harness::encode_result(identity[i], result);
      } catch (const std::exception& e) {
        report.check(false, cell.key() + ": " + e.what());
        continue;
      }
      if (reference[i].empty()) {
        reference[i] = fingerprint;
      }
      report.check(fingerprint == reference[i],
                   cell.key() + ": result differs between rounds");

      const auto t2 = std::chrono::steady_clock::now();
      RunResult loaded;
      const bool ok =
          repro::harness::load_checkpoint(checkpoints, cell.config, &loaded);
      warm.add(ms_since(t2), cal);
      report.check(ok && repro::harness::encode_result(identity[i], loaded) ==
                             fingerprint,
                   cell.key() + ": checkpointed result differs from computed");
    }
    last_round_ms = ms_since(round_start);
  }

  double grid_s = 0.0;
  double grid_raw_s = 0.0;
  for (const Series& s : per_cell) {
    if (s.size() != 0) {
      grid_s += median(clock.normalize(s)) / 1000.0;
      grid_raw_s += median(s.raw) / 1000.0;
    }
  }
  std::cout << opts.workload << ": " << n << " cells x " << per_cell[0].size()
            << " rounds\n";
  set_setup(report, clock, setup);
  report.set("grid_s", grid_s, "s");
  std::cout << "  grid_s = " << grid_s << " s (raw " << grid_raw_s << " s)\n";
  set_latency(report, clock, "cell_ms", cells, "ms");
  set_latency(report, clock, "cold_request_ms", cold, "ms");
  set_latency(report, clock, "warm_request_ms", warm, "ms");
  if (!scratch.remove()) {
    report.check(false, "scratch directory left behind: " + scratch.path());
  }
}

}  // namespace perfbench
