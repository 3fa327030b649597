// End-to-end runs of the grid workloads (steady_grid, full_sim_grid).
#pragma once

#include "calib.hpp"
#include "runutil.hpp"
#include "stats.hpp"

namespace perfbench {

/// Set-up, then timed rounds over the grid while the next round fits
/// in opts.seconds (at least kMinRounds). Each round runs every cell
/// once, in a seed-shuffled order, through harness::run_benchmark, then
/// saves and reloads its checkpoint (the cold and warm request of a
/// checkpointed sweep). Sets every end-to-end metric.
void run_grid(const Options& opts, HostClock& clock, Report& report);

/// Records `<name>.p50` and `<name>.p90` of the calibrated samples and
/// prints them beside the raw ones.
void set_latency(Report& report, const HostClock& clock,
                 const std::string& name, const Series& samples,
                 const std::string& unit);

/// Records setup_s, the median of the calibrated set-up samples.
void set_setup(Report& report, const HostClock& clock, const Series& setup);

/// Prints the calibration drift report and records host.calib_ms and
/// host.calib_spread.
void report_calibration(const HostClock& clock, Report& report);

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 5;
/// Enough samples that at least 10 lie beyond every cell_ms.p90.
inline constexpr int kMinRounds = 5;

}  // namespace perfbench
