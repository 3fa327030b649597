// The sweep_service workload: an in-process SweepDaemon driven by one
// closed-loop SweepClient.
#pragma once

#include <string>
#include <vector>

#include "calib.hpp"
#include "runutil.hpp"
#include "stats.hpp"

namespace perfbench {

/// End-to-end run: set-up is daemon start (journal recovery included)
/// up to the first answered request, repeated; then cold single-cell
/// requests interleave with warm re-requests of the cached grid until
/// opts.seconds are spent. Sets every end-to-end metric.
void run_service(const Options& opts, HostClock& clock, Report& report);

/// Per-layer service metrics from a short session of the same shape
/// (`cycles` cold requests) plus direct calls into the cache, the
/// framing and the result codec. Sets every service.* metric and
/// harness.decode_result_us.
void trace_service(const Options& opts, HostClock& clock, Report& report,
                   std::size_t cycles);

}  // namespace perfbench
