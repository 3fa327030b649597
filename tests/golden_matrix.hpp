// The golden matrix, shared by every suite that runs it.
//
// tests/golden/trace_digests.txt pins the 30-cell placement matrix
// (every benchmark x {ft, rr, wc} x {base, upmlib}) and
// tests/golden/daemon_digests.txt the 10 kernel-daemon cells (every
// benchmark x {rr, wc} x IRIXmig), all traced at iterations=3 and
// size_scale=0.25. A cell is named as in those files, by benchmark and
// label; the label of a cell's RunResult is the label it was built
// from.
#pragma once

#include <array>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "repro/common/assert.hpp"
#include "repro/harness/scheduler.hpp"

namespace repro::golden {

inline constexpr std::array<std::string_view, 6> kPlacementLabels = {
    "ft-base", "ft-upmlib", "rr-base", "rr-upmlib", "wc-base", "wc-upmlib"};
inline constexpr std::array<std::string_view, 2> kDaemonLabels = {
    "rr-IRIXmig", "wc-IRIXmig"};

/// The config of the golden cell `benchmark label`.
inline harness::RunConfig golden_config(const std::string& benchmark,
                                        std::string_view label) {
  const std::size_t dash = label.find('-');
  REPRO_REQUIRE_MSG(dash != std::string_view::npos, "malformed label");
  const std::string_view engine = label.substr(dash + 1);
  harness::RunConfig config;
  config.benchmark = benchmark;
  config.placement = std::string(label.substr(0, dash));
  config.iterations = 3;
  config.workload.size_scale = 0.25;
  config.trace = true;
  if (engine == "upmlib") {
    config.upm_mode = nas::UpmMode::kDistribution;
  } else if (engine == "IRIXmig") {
    config.kernel_migration = true;
  } else {
    REPRO_REQUIRE_MSG(engine == "base", "unknown golden engine");
  }
  return config;
}

/// Every benchmark x `labels`, benchmark-major: the row order of the
/// golden files.
inline std::vector<harness::RunConfig> golden_matrix(
    std::span<const std::string_view> labels) {
  std::vector<harness::RunConfig> configs;
  for (const std::string& benchmark : nas::workload_names()) {
    for (const std::string_view label : labels) {
      configs.push_back(golden_config(benchmark, label));
    }
  }
  return configs;
}

}  // namespace repro::golden
