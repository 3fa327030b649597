// Coherence sweep: the false-sharing scenario family under the
// line-grain coherence model.
//
// {msi, mesi} x {ft, rr} x {base, upmlib} x {FS, FSP} = 16 cells. FS is
// the false-sharing workload (four threads' fields per coherence line);
// FSP its padded twin (one field per line, same access counts). The
// pair isolates the line pathology: page-grain statistics are nearly
// identical, but FS's coherence-miss rate must exceed FSP's by at least
// 5x (the acceptance gate --smoke enforces in CI), because every flag
// write invalidates the neighbours' copies.
//
// Rows written to BENCH_coherence_sweep.json carry the cell's integer
// simulated total `sim_total_ns` and its coherence counters, all
// deterministic: no host time is measured.
//
// Usage: coherence_sweep [--iterations=N] [--jobs=N] [--json=DIR]
//                        [--verify-determinism] [--smoke]
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "repro/common/table.hpp"
#include "repro/harness/cli.hpp"
#include "repro/harness/json.hpp"
#include "repro/harness/scheduler.hpp"

using namespace repro;
using namespace repro::harness;

namespace {

struct Cell {
  std::string benchmark;  // "FS" | "FSP"
  std::string policy;     // "msi" | "mesi"
  std::string placement;  // "ft" | "rr"
  bool upmlib = false;
};

RunConfig cell_config(const Cell& cell, std::uint32_t iterations,
                      bool trace) {
  RunConfig config;
  config.benchmark = cell.benchmark;
  config.placement = cell.placement;
  config.coherence = cell.policy;
  config.iterations = iterations;
  if (cell.upmlib) {
    config.upm_mode = nas::UpmMode::kDistribution;
  }
  config.trace = trace;
  return config;
}

std::string cell_name(const Cell& cell) {
  std::ostringstream os;
  os << "CoherenceSweep/" << cell.benchmark << '/' << cell.placement
     << (cell.upmlib ? "-upmlib" : "-base") << '-' << cell.policy;
  return os.str();
}

std::size_t compare_digests(const std::vector<Cell>& cells,
                            const std::vector<RunResult>& a,
                            const std::vector<RunResult>& b,
                            const std::string& what) {
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (a[i].trace_digest != b[i].trace_digest) {
      ++mismatches;
      std::cerr << "DIGEST MISMATCH (" << what << "): " << cell_name(cells[i])
                << ' ' << a[i].trace_digest << " != " << b[i].trace_digest
                << '\n';
    }
  }
  return mismatches;
}

/// The acceptance gate: for every (policy, placement, engine)
/// combination present, FS's coherence-miss rate must be >= 5x FSP's
/// (and nonzero). Returns the number of violations.
std::size_t check_ratio(const std::vector<Cell>& cells,
                        const std::vector<RunResult>& results) {
  std::size_t violations = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].benchmark != "FS") {
      continue;
    }
    for (std::size_t j = 0; j < cells.size(); ++j) {
      if (cells[j].benchmark != "FSP" ||
          cells[j].policy != cells[i].policy ||
          cells[j].placement != cells[i].placement ||
          cells[j].upmlib != cells[i].upmlib) {
        continue;
      }
      const double fs = results[i].coherence_totals.coherence_miss_rate();
      const double fsp = results[j].coherence_totals.coherence_miss_rate();
      if (fs <= 0.0 || fs < 5.0 * fsp) {
        ++violations;
        std::cerr << "RATIO VIOLATION: " << cell_name(cells[i])
                  << " coherence-miss rate " << fs << " is not >= 5x "
                  << cell_name(cells[j]) << "'s " << fsp << '\n';
      }
    }
  }
  return violations;
}

}  // namespace

int main(int argc, char** argv) {
  bool verify = false;
  bool smoke = false;
  std::string json_dir;
  std::uint64_t iterations = 6;
  std::uint64_t jobs = 0;
  std::uint32_t cell_timeout_ms = 0;

  Cli cli("coherence_sweep");
  cli.add_uint("iterations", &iterations, "timed iterations per cell", 1);
  cli.add_uint("jobs", &jobs, "host worker threads (0 = auto)");
  cli.add_uint("cell-timeout-ms", &cell_timeout_ms,
               "abort any cell exceeding this wall-clock budget (ms; env "
               "REPRO_CELL_TIMEOUT_MS)",
               /*min=*/1);
  cli.add_string("json", &json_dir,
                 "directory for BENCH_coherence_sweep.json (rows carry an "
                 "integer sim_total_ns plus coherence counters, no host "
                 "time)");
  cli.add_flag("verify-determinism", &verify,
               "run the matrix under --jobs, --jobs=1 and again under "
               "--jobs, and require byte-identical trace digests");
  cli.add_flag("smoke", &smoke,
               "CI mode: the FS/FSP msi ft-base pair, tracing on, jobs=1 "
               "vs jobs=4 digest check plus the 5x miss-rate gate");
  switch (cli.parse(argc, argv)) {
    case Cli::Status::kHelp:
      std::cout << cli.usage();
      return 0;
    case Cli::Status::kError:
      std::cerr << "error: " << cli.error() << "\n\n" << cli.usage();
      return 2;
    case Cli::Status::kOk:
      break;
  }

  std::vector<Cell> cells;
  if (smoke) {
    iterations = 4;
    cells.push_back(Cell{"FS", "msi", "ft", false});
    cells.push_back(Cell{"FSP", "msi", "ft", false});
  } else {
    for (const std::string policy : {"msi", "mesi"}) {
      for (const std::string placement : {"ft", "rr"}) {
        for (const bool upmlib : {false, true}) {
          for (const std::string bench : {"FS", "FSP"}) {
            cells.push_back(Cell{bench, policy, placement, upmlib});
          }
        }
      }
    }
  }

  const bool trace = verify || smoke;
  std::vector<RunConfig> configs;
  configs.reserve(cells.size());
  for (const Cell& cell : cells) {
    configs.push_back(cell_config(
        cell, static_cast<std::uint32_t>(iterations), trace));
  }

  std::cout << "Coherence sweep: " << cells.size()
            << " cells, FS (false sharing) vs FSP (padded), iterations="
            << iterations << "\n\n";

  const std::size_t run_jobs =
      effective_jobs(std::max<std::uint64_t>(1, jobs == 0 ? 0 : jobs));
  const auto sweep_with = [cell_timeout_ms](std::size_t sweep_jobs) {
    SweepOptions sweep_options;
    sweep_options.jobs = sweep_jobs;
    sweep_options.cell_timeout_ms = cell_timeout_ms;
    return sweep_options;
  };
  const std::vector<RunResult> results =
      run_experiments(configs, sweep_with(run_jobs));

  if (trace) {
    const std::size_t check_jobs = smoke ? 4 : run_jobs;
    const std::vector<RunResult> serial =
        run_experiments(configs, sweep_with(1));
    const std::vector<RunResult> parallel =
        check_jobs == run_jobs ? results
                               : run_experiments(configs, sweep_with(check_jobs));
    std::size_t mismatches = compare_digests(cells, results, serial, "jobs");
    mismatches += compare_digests(cells, results, parallel, "rerun");
    if (mismatches != 0) {
      std::cerr << mismatches << " cell(s) not byte-identical\n";
      return 1;
    }
    std::cout << "determinism: all " << cells.size()
              << " cell(s) byte-identical across job counts and reruns\n\n";
  }

  TextTable table({"bench", "label", "sim ms/iter", "coh miss rate",
                   "invalidations", "upgrades", "digest"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const double sim_ms = ns_to_seconds(results[i].total) * 1e3 /
                          static_cast<double>(iterations);
    const coherence::CoherenceStats& c = results[i].coherence_totals;
    table.add_row(
        {cells[i].benchmark, results[i].label, fmt_double(sim_ms, 3),
         fmt_double(c.coherence_miss_rate(), 4),
         std::to_string(c.invalidations_sent), std::to_string(c.upgrades),
         results[i].trace_digest.empty() ? "-" : results[i].trace_digest});
  }
  table.print(std::cout);

  const std::size_t violations = check_ratio(cells, results);
  if (violations != 0) {
    std::cerr << violations << " FS/FSP ratio violation(s)\n";
    return 1;
  }
  std::cout << "\nFS >= 5x FSP coherence-miss rate holds for every "
               "(policy, placement, engine) pair\n";

  if (!json_dir.empty()) {
    std::vector<BenchRow> rows;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const coherence::CoherenceStats& c = results[i].coherence_totals;
      rows.push_back({cell_name(cells[i]), iterations, std::nullopt,
                      {{"sim_total_ns", results[i].total},
                       {"coherence_miss_rate", c.coherence_miss_rate()},
                       {"coherence_miss_lines", c.coherence_miss_lines},
                       {"upgrades", c.upgrades}, {"writebacks", c.writebacks},
                       {"invalidations", c.invalidations_sent}}});
    }
    const std::string path = json_dir + "/BENCH_coherence_sweep.json";
    write_bench_rows(path, "coherence_sweep", rows);
    std::cout << "\nwrote " << path << '\n';
  }
  return 0;
}
