// Structured JSON emission of experiment results, so bench runs leave
// a machine-readable trajectory (BENCH_<name>.json) next to the human
// tables. Everything goes through repro::json::Writer and lands via
// atomic_write_file.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "repro/harness/run.hpp"

namespace repro::harness {

/// Renders results as a JSON array of per-run objects (label,
/// benchmark, seconds, iteration statistics, memory totals, migration
/// counts). Deterministic: depends only on the results' values.
[[nodiscard]] std::string results_to_json(
    const std::vector<RunResult>& results);

/// Writes `{"bench": <name>, "results": [...]}` to `path`.
void write_results_json(const std::string& path, const std::string& bench,
                        const std::vector<RunResult>& results);

/// Peak resident set of this process in MiB.
[[nodiscard]] double peak_rss_mib();

/// A named number in a BENCH row or in its file's context block.
using BenchField = std::pair<std::string, std::variant<std::uint64_t, double>>;

/// One row of a google-benchmark-shaped BENCH_*.json file.
struct BenchRow {
  std::string name;
  std::uint64_t iterations = 1;
  /// Host wall-clock ms, the only source of `real_time`/`cpu_time`.
  /// Empty for rows that timed nothing on the host; simulated
  /// quantities go in `fields` under a `sim_` prefix.
  std::optional<double> host_ms;
  std::vector<BenchField> fields;
};

/// Writes `{"context": {...}, "benchmarks": [rows]}` to `path`. The
/// context block holds `executable`, the `context` fields and the
/// process's peak RSS at the time of the call.
void write_bench_rows(const std::string& path, std::string_view executable,
                      const std::vector<BenchRow>& rows,
                      const std::vector<BenchField>& context = {});

}  // namespace repro::harness
