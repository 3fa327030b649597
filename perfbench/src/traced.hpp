// The traced run: per-layer metrics from spans recorded around public
// calls into each layer, plus the run's golden and equivalence checks.
#pragma once

#include <string>
#include <vector>

#include "calib.hpp"
#include "runutil.hpp"
#include "stats.hpp"

namespace perfbench {

void run_traced(const Options& opts, HostClock& clock, Report& report);

/// Every per-layer metric, in the order the JSON line lists them.
[[nodiscard]] const std::vector<std::string>& per_layer_names();

}  // namespace perfbench
