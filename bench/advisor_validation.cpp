// Advisor validation sweep: the static placement advisor's predictions
// scored against simulation ground truth.
//
// Replays the exact 30-cell golden-trace grid (every benchmark x
// {ft, rr, wc} x {base, upmlib}, iterations=3, size_scale=0.25, traced)
// and, for every benchmark, runs the advisor once on the dry-run
// capture. Each prediction is then scored against what the simulator
// actually did, reconstructed from the recorded event stream
// (repro::trace::extract_ground_truth -- no new event kinds, so the
// golden digests stay bit-identical):
//
//  * advisor.needs-migration -- predicted migrated-page sets vs the
//    kPageMigration events: per-cell and micro-averaged precision /
//    recall, plus target-node agreement on the true positives;
//  * advisor.ping-pong -- predicted bounce-frozen pages vs the
//    kPageFreeze events (the steady grid produces none, so this is a
//    zero-false-positive check: precision stays defined and must hold);
//  * advisor.cold-home -- the flagged cold-touch population vs the
//    pages ft-upmlib actually migrated;
//  * advisor.distribution-unnecessary -- the per-benchmark verdict vs
//    the measured cell ranking, plus Kendall tau-a rank agreement
//    between predicted cost and simulated time over the six cells;
//  * first-touch home prediction -- initial_home vs the src node of
//    each page's first real migration;
//  * per-iteration migration vectors, compared exactly and (with
//    --golden) cross-checked against tests/golden/trace_digests.txt.
//
// Exit status is nonzero when any gated metric falls below
// --fail-under (default 0.8) or a migration vector mismatches.
//
// Usage: advisor_validation [--jobs=N] [--fail-under=F] [--json=DIR]
//                           [--golden=PATH]
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "repro/common/atomic_file.hpp"
#include "repro/common/json.hpp"
#include "repro/common/table.hpp"
#include "repro/harness/advise.hpp"
#include "repro/harness/cli.hpp"
#include "repro/harness/scheduler.hpp"
#include "repro/trace/ground_truth.hpp"

using namespace repro;
using namespace repro::harness;

namespace {

/// The golden-trace grid, bit-for-bit (tests/test_golden_trace.cpp).
std::vector<RunConfig> grid_configs() {
  std::vector<RunConfig> configs;
  for (const auto& benchmark : nas::workload_names()) {
    for (const std::string placement : {"ft", "rr", "wc"}) {
      for (const bool upmlib : {false, true}) {
        RunConfig config;
        config.benchmark = benchmark;
        config.placement = placement;
        config.iterations = 3;
        config.workload.size_scale = 0.25;
        config.trace = true;
        if (upmlib) {
          config.upm_mode = nas::UpmMode::kDistribution;
        }
        configs.push_back(std::move(config));
      }
    }
  }
  return configs;
}

/// Counted set intersection of two ascending page lists.
std::size_t intersection_size(const std::vector<std::uint64_t>& a,
                              const std::vector<std::uint64_t>& b) {
  std::size_t hits = 0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++hits;
      ++ia;
      ++ib;
    }
  }
  return hits;
}

/// tp / (tp + fp); an empty prediction set has nothing wrong in it.
double ratio_or_one(std::size_t hits, std::size_t total) {
  return total == 0 ? 1.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

/// Kendall tau-a between two parallel score vectors.
double kendall_tau(const std::vector<double>& x, const std::vector<double>& y) {
  const std::size_t n = x.size();
  if (n < 2) {
    return 1.0;
  }
  std::int64_t concordant = 0;
  std::int64_t discordant = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double p = (x[i] - x[j]) * (y[i] - y[j]);
      if (p > 0) {
        ++concordant;
      } else if (p < 0) {
        ++discordant;
      }
    }
  }
  const double pairs = static_cast<double>(n * (n - 1)) / 2.0;
  return static_cast<double>(concordant - discordant) / pairs;
}

std::string render_vector(const std::vector<std::uint64_t>& v) {
  if (v.empty()) {
    return "-";
  }
  std::ostringstream os;
  for (std::size_t i = 0; i < v.size(); ++i) {
    os << (i == 0 ? "" : ",") << v[i];
  }
  return os.str();
}

std::string fmt3(double v) { return fmt_double(v, 3); }

/// One scored (benchmark x placement x engine) cell.
struct CellScore {
  std::string benchmark;
  std::string label;
  std::size_t predicted_migrations = 0;
  std::size_t actual_migrations = 0;
  std::size_t migration_hits = 0;  ///< |predicted ∩ actual| pages
  std::size_t target_hits = 0;     ///< hits whose final node also matches
  std::size_t home_hits = 0;       ///< hits whose pre-migration home matches
  std::size_t predicted_frozen = 0;
  std::size_t actual_frozen = 0;
  std::size_t frozen_hits = 0;
  bool vector_match = false;  ///< migrations-per-iteration, exact
  std::string predicted_vector;
  std::string actual_vector;
  double predicted_remote = 0.0;
  double actual_remote = 0.0;
  double predicted_cost = 0.0;
  double actual_seconds = 0.0;
};

struct BenchmarkScore {
  std::string benchmark;
  std::vector<CellScore> cells;
  double tau = 0.0;  ///< Kendall tau-a, predicted cost vs simulated time
  std::string predicted_best;
  std::string actual_best;
  bool verdict_agrees = false;  ///< distribution_unnecessary vs measured
  std::size_t cold_home_flagged = 0;
  std::size_t cold_home_hits = 0;  ///< flagged pages ft-upmlib truly migrated
};

CellScore score_cell(const analysis::PlacementPrediction& predicted,
                     const RunResult& actual) {
  const trace::PlacementGroundTruth truth =
      trace::extract_ground_truth(*actual.trace);
  CellScore score;
  score.benchmark = actual.benchmark;
  score.label = actual.label;
  score.predicted_migrations = predicted.migrated_pages.size();
  score.actual_migrations = truth.migrated_pages.size();
  score.migration_hits =
      intersection_size(predicted.migrated_pages, truth.migrated_pages);

  // Walk the sorted lists once more for the per-page target / home
  // agreement on the true positives.
  auto ip = predicted.migrated_pages.begin();
  auto it = truth.migrated_pages.begin();
  while (ip != predicted.migrated_pages.end() &&
         it != truth.migrated_pages.end()) {
    if (*ip < *it) {
      ++ip;
    } else if (*it < *ip) {
      ++it;
    } else {
      const auto pi =
          static_cast<std::size_t>(ip - predicted.migrated_pages.begin());
      const auto ti =
          static_cast<std::size_t>(it - truth.migrated_pages.begin());
      if (predicted.migrated_targets[pi] == truth.post_migration_home[ti]) {
        ++score.target_hits;
      }
      if (*ip < predicted.initial_home.size() &&
          predicted.initial_home[*ip] == truth.pre_migration_home[ti]) {
        ++score.home_hits;
      }
      ++ip;
      ++it;
    }
  }

  score.predicted_frozen = predicted.frozen_pages.size();
  score.actual_frozen = truth.frozen_pages.size();
  score.frozen_hits =
      intersection_size(predicted.frozen_pages, truth.frozen_pages);

  std::vector<std::uint64_t> actual_vec = truth.migrations_per_iteration;
  std::vector<std::uint64_t> predicted_vec = predicted.migrations_per_iteration;
  // The trace only sizes the vector up to the last migrating iteration;
  // pad both to the run length before comparing.
  const std::size_t iterations =
      std::max({actual_vec.size(), predicted_vec.size(),
                actual.iteration_times.size()});
  actual_vec.resize(iterations, 0);
  predicted_vec.resize(iterations, 0);
  score.vector_match = predicted_vec == actual_vec;
  score.predicted_vector = render_vector(predicted_vec);
  score.actual_vector = render_vector(actual_vec);

  score.predicted_remote = predicted.steady_remote_fraction;
  score.actual_remote = truth.last_remote_fraction();
  score.predicted_cost = predicted.predicted_cost;
  score.actual_seconds = actual.seconds();
  return score;
}

/// Re-derives the advisor.cold-home page population (the diagnostics
/// list is capped per rule, the score wants the whole set).
std::vector<std::uint64_t> cold_home_pages(
    const analysis::AdvisorReport& report, std::uint64_t min_page_lines) {
  std::vector<std::uint64_t> pages;
  const analysis::LocalityDataflow& flow = report.dataflow;
  for (const analysis::PlacementPrediction& cell : report.cells) {
    if (cell.label != "ft-upmlib") {
      continue;
    }
    for (const std::uint64_t page : cell.migrated_pages) {
      if (flow.cold_first_touch[page] != 0 &&
          flow.iteration.page_total(page) >= min_page_lines) {
        pages.push_back(page);
      }
    }
  }
  return pages;
}

std::map<std::string, std::string> load_golden_vectors(
    const std::string& path) {
  std::map<std::string, std::string> goldens;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string benchmark;
    std::string label;
    std::string digest;
    std::string migrations;
    fields >> benchmark >> label >> digest >> migrations;
    goldens[benchmark + " " + label] = migrations;
  }
  return goldens;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t jobs = 0;
  std::uint32_t cell_timeout_ms = 0;
  double fail_under = 0.8;
  std::string json_dir;
  std::string golden_path;
  Cli cli("advisor_validation");
  cli.add_uint("jobs", &jobs, "worker threads for the simulation grid",
               /*min=*/1);
  cli.add_uint("cell-timeout-ms", &cell_timeout_ms,
               "abort any cell exceeding this wall-clock budget (ms; env "
               "REPRO_CELL_TIMEOUT_MS)",
               /*min=*/1);
  cli.add_double("fail-under", &fail_under,
                 "fail when a gated metric drops below this (default 0.8)");
  cli.add_string("json", &json_dir,
                 "write BENCH_advisor_validation.json here");
  cli.add_string("golden", &golden_path,
                 "cross-check the simulated migration vectors against this "
                 "golden digest file (tests/golden/trace_digests.txt)");
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

  std::cout << "Advisor validation: static predictions vs the 30-cell "
               "golden-trace grid\n\n";

  const std::vector<RunConfig> configs = grid_configs();
  SweepOptions sweep_options;
  sweep_options.jobs = jobs;
  sweep_options.cell_timeout_ms = cell_timeout_ms;
  const std::vector<RunResult> results =
      run_experiments(configs, sweep_options);

  // One capture + verdict per benchmark (the advisor is placement-
  // blind, all six cells come from the same dataflow).
  std::map<std::string, analysis::AdvisorReport> reports;
  for (const auto& benchmark : nas::workload_names()) {
    RunConfig config;
    config.benchmark = benchmark;
    config.iterations = 3;
    config.workload.size_scale = 0.25;
    reports.emplace(benchmark, advise_benchmark(config));
  }

  std::vector<BenchmarkScore> scores;
  bool gate_failed = false;
  std::size_t cell_index = 0;
  for (const auto& benchmark : nas::workload_names()) {
    const analysis::AdvisorReport& report = reports.at(benchmark);
    BenchmarkScore bench;
    bench.benchmark = benchmark;

    std::vector<double> predicted_costs;
    std::vector<double> actual_times;
    std::vector<std::uint64_t> ft_upm_true_migrations;
    const RunResult* actual_best = nullptr;
    const RunResult* actual_ft_base = nullptr;
    for (int c = 0; c < 6; ++c, ++cell_index) {
      const RunResult& actual = results[cell_index];
      const analysis::PlacementPrediction* predicted = nullptr;
      for (const analysis::PlacementPrediction& cell : report.cells) {
        if (cell.label == actual.label) {
          predicted = &cell;
        }
      }
      if (predicted == nullptr) {
        std::cerr << "no prediction for " << benchmark << " " << actual.label
                  << "\n";
        return 2;
      }
      bench.cells.push_back(score_cell(*predicted, actual));
      predicted_costs.push_back(predicted->predicted_cost);
      actual_times.push_back(actual.seconds());
      if (actual.label == "ft-upmlib") {
        ft_upm_true_migrations =
            trace::extract_ground_truth(*actual.trace).migrated_pages;
      }
      if (actual_best == nullptr || actual.total < actual_best->total) {
        actual_best = &actual;
      }
      if (actual.label == "ft-base") {
        actual_ft_base = &actual;
      }
    }

    bench.tau = kendall_tau(predicted_costs, actual_times);
    bench.predicted_best = report.predicted_best;
    bench.actual_best = actual_best->label;
    // The paper's thesis, measured: ft-base within the advisor's margin
    // of the fastest cell. The verdict agrees when prediction and
    // measurement land on the same side.
    const double actual_gap =
        (static_cast<double>(actual_ft_base->total) -
         static_cast<double>(actual_best->total)) /
        static_cast<double>(actual_best->total);
    bench.verdict_agrees =
        report.distribution_unnecessary ==
        (actual_best->label == "ft-base" || actual_gap <= 0.08);

    // Flagged pages are a subset of the predicted ft-upmlib migrations
    // by construction; precision counts how many the simulator truly
    // migrated.
    const std::vector<std::uint64_t> cold_pages =
        cold_home_pages(report, /*min_page_lines=*/2);
    bench.cold_home_flagged = cold_pages.size();
    bench.cold_home_hits =
        intersection_size(cold_pages, ft_upm_true_migrations);
    scores.push_back(std::move(bench));
  }

  // ---- Per-cell table -------------------------------------------------
  TextTable cells({"cell", "pred mig", "true mig", "precision", "recall",
                   "targets", "ft-homes", "mig vector", "remote err"});
  std::size_t mig_tp = 0;
  std::size_t mig_pred = 0;
  std::size_t mig_true = 0;
  std::size_t target_tp = 0;
  std::size_t home_tp = 0;
  std::size_t frz_tp = 0;
  std::size_t frz_pred = 0;
  std::size_t frz_true = 0;
  bool vectors_ok = true;
  for (const BenchmarkScore& bench : scores) {
    for (const CellScore& cell : bench.cells) {
      mig_tp += cell.migration_hits;
      mig_pred += cell.predicted_migrations;
      mig_true += cell.actual_migrations;
      target_tp += cell.target_hits;
      home_tp += cell.home_hits;
      frz_tp += cell.frozen_hits;
      frz_pred += cell.predicted_frozen;
      frz_true += cell.actual_frozen;
      vectors_ok = vectors_ok && cell.vector_match;
      cells.add_row(
          {bench.benchmark + " " + cell.label,
           std::to_string(cell.predicted_migrations),
           std::to_string(cell.actual_migrations),
           fmt3(ratio_or_one(cell.migration_hits, cell.predicted_migrations)),
           fmt3(ratio_or_one(cell.migration_hits, cell.actual_migrations)),
           fmt3(ratio_or_one(cell.target_hits, cell.migration_hits)),
           fmt3(ratio_or_one(cell.home_hits, cell.migration_hits)),
           cell.vector_match ? "match" : cell.predicted_vector + " != " +
                                             cell.actual_vector,
           fmt3(std::abs(cell.predicted_remote - cell.actual_remote))});
    }
  }
  cells.print(std::cout);
  std::cout << '\n';

  // ---- Per-benchmark verdict table ------------------------------------
  TextTable verdicts({"benchmark", "kendall tau-a", "predicted best",
                      "actual best", "verdict", "cold-home prec"});
  double min_tau = 1.0;
  std::size_t cold_tp = 0;
  std::size_t cold_pred = 0;
  for (const BenchmarkScore& bench : scores) {
    min_tau = std::min(min_tau, bench.tau);
    cold_tp += bench.cold_home_hits;
    cold_pred += bench.cold_home_flagged;
    verdicts.add_row(
        {bench.benchmark, fmt3(bench.tau), bench.predicted_best,
         bench.actual_best, bench.verdict_agrees ? "agrees" : "DISAGREES",
         fmt3(ratio_or_one(bench.cold_home_hits, bench.cold_home_flagged))});
  }
  verdicts.print(std::cout);
  std::cout << '\n';

  // ---- Aggregate + gate -----------------------------------------------
  const double mig_precision = ratio_or_one(mig_tp, mig_pred);
  const double mig_recall = ratio_or_one(mig_tp, mig_true);
  const double target_agreement = ratio_or_one(target_tp, mig_tp);
  const double home_agreement = ratio_or_one(home_tp, mig_tp);
  const double frz_precision = ratio_or_one(frz_tp, frz_pred);
  const double frz_recall = ratio_or_one(frz_tp, frz_true);
  const double cold_precision = ratio_or_one(cold_tp, cold_pred);

  TextTable aggregate({"rule / metric", "value", "support", "gated"});
  aggregate.add_row({"advisor.needs-migration precision", fmt3(mig_precision),
                     std::to_string(mig_pred), "yes"});
  aggregate.add_row({"advisor.needs-migration recall", fmt3(mig_recall),
                     std::to_string(mig_true), "yes"});
  aggregate.add_row({"migration target agreement", fmt3(target_agreement),
                     std::to_string(mig_tp), "yes"});
  aggregate.add_row({"first-touch home agreement", fmt3(home_agreement),
                     std::to_string(mig_tp), "yes"});
  aggregate.add_row({"advisor.ping-pong precision", fmt3(frz_precision),
                     std::to_string(frz_pred), "yes"});
  aggregate.add_row({"advisor.ping-pong recall", fmt3(frz_recall),
                     std::to_string(frz_true), "no"});
  aggregate.add_row({"advisor.cold-home precision", fmt3(cold_precision),
                     std::to_string(cold_pred), "yes"});
  aggregate.add_row({"min kendall tau-a", fmt3(min_tau), "5 benchmarks",
                     "yes (> 0)"});
  aggregate.add_row({"migration vectors exact", vectors_ok ? "yes" : "NO",
                     "30 cells", "yes"});
  aggregate.print(std::cout);

  if (mig_precision < fail_under || mig_recall < fail_under ||
      target_agreement < fail_under || home_agreement < fail_under ||
      frz_precision < fail_under || cold_precision < fail_under) {
    std::cout << "\nFAIL: a gated precision/recall fell below "
              << fmt3(fail_under) << "\n";
    gate_failed = true;
  }
  if (min_tau <= 0.0) {
    std::cout << "\nFAIL: predicted cost ranking anti-correlates with the "
                 "simulation for at least one benchmark\n";
    gate_failed = true;
  }
  if (!vectors_ok) {
    std::cout << "\nFAIL: a predicted migrations-per-iteration vector does "
                 "not match the simulation\n";
    gate_failed = true;
  }

  // ---- Optional golden cross-check ------------------------------------
  if (!golden_path.empty()) {
    const std::map<std::string, std::string> goldens =
        load_golden_vectors(golden_path);
    if (goldens.empty()) {
      std::cout << "\nFAIL: no golden entries at " << golden_path << "\n";
      gate_failed = true;
    }
    std::size_t checked = 0;
    for (const RunResult& result : results) {
      const auto it = goldens.find(result.benchmark + " " + result.label);
      if (it == goldens.end()) {
        continue;
      }
      ++checked;
      std::vector<std::uint64_t> vec;
      for (const trace::IterationMetrics& m : result.iteration_metrics) {
        if (m.iteration >= 1) {
          vec.push_back(m.migrations);
        }
      }
      if (render_vector(vec) != it->second) {
        std::cout << "\nFAIL: " << result.benchmark << " " << result.label
                  << " migration vector " << render_vector(vec)
                  << " != golden " << it->second << "\n";
        gate_failed = true;
      }
    }
    std::cout << "\ngolden cross-check: " << checked << "/" << results.size()
              << " cells matched against " << golden_path << "\n";
  }

  // ---- JSON trajectory -------------------------------------------------
  if (!json_dir.empty()) {
    json::Writer w;
    w.begin_object().field("bench", "advisor_validation");
    w.field("fail_under", fail_under).key("aggregate").begin_object();
    w.field("migration_precision", mig_precision);
    w.field("migration_recall", mig_recall);
    w.field("target_agreement", target_agreement);
    w.field("home_agreement", home_agreement);
    w.field("pingpong_precision", frz_precision);
    w.field("pingpong_recall", frz_recall).field("pingpong_support", frz_true);
    w.field("cold_home_precision", cold_precision);
    w.field("min_kendall_tau", min_tau);
    w.field("vectors_exact", vectors_ok).field("passed", !gate_failed);
    w.end_object().key("benchmarks").begin_array();
    for (const BenchmarkScore& bench : scores) {
      w.begin_object().field("benchmark", bench.benchmark);
      w.field("kendall_tau", bench.tau);
      w.field("predicted_best", bench.predicted_best);
      w.field("actual_best", bench.actual_best);
      w.field("verdict_agrees", bench.verdict_agrees);
      w.field("cold_home_flagged", bench.cold_home_flagged);
      w.field("cold_home_hits", bench.cold_home_hits);
      w.key("cells").begin_array();
      for (const CellScore& cell : bench.cells) {
        w.begin_object().field("label", cell.label);
        w.field("predicted_migrations", cell.predicted_migrations);
        w.field("actual_migrations", cell.actual_migrations);
        w.field("migration_hits", cell.migration_hits);
        w.field("target_hits", cell.target_hits);
        w.field("home_hits", cell.home_hits);
        w.field("predicted_frozen", cell.predicted_frozen);
        w.field("actual_frozen", cell.actual_frozen);
        w.field("vector_match", cell.vector_match);
        w.field("predicted_remote", cell.predicted_remote);
        w.field("actual_remote", cell.actual_remote);
        w.field("predicted_cost", cell.predicted_cost);
        w.field("actual_seconds", cell.actual_seconds).end_object();
      }
      w.end_array().end_object();
    }
    w.end_array().end_object();
    atomic_write_file(json_dir + "/BENCH_advisor_validation.json", w.finish());
    std::cout << "JSON written to " << json_dir
              << "/BENCH_advisor_validation.json\n";
  }

  if (gate_failed) {
    return 1;
  }
  std::cout << "\nPASS: every gated metric at or above " << fmt3(fail_under)
            << "\n";
  return 0;
}
