// perfbench: the repo's end-to-end benchmark (see README.md).
//
//   perfbench --workload <steady_grid|full_sim_grid|sweep_service>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--scratch-root DIR] [--golden FILE]
//
// --trace 0 measures the end-to-end metrics with nothing traced;
// --trace 1 makes the separate traced run that gives the per-layer
// metrics. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Every check failure
// is counted there and makes the exit code 1.
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "calib.hpp"
#include "grid.hpp"
#include "runutil.hpp"
#include "service_load.hpp"
#include "stats.hpp"
#include "traced.hpp"

namespace {

using perfbench::Options;

const std::vector<std::string> kEndToEnd = {
    "setup_s",
    "grid_s",
    "cell_ms.p50",
    "cell_ms.p90",
    "cold_request_ms.p50",
    "cold_request_ms.p90",
    "warm_request_ms.p50",
    "warm_request_ms.p90",
    "peak_rss_mb",
    "success_rate"};

bool parse(int argc, char** argv, Options* opts, std::string* error) {
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opts->workload = value;
      } else if (flag == "--seed") {
        opts->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opts->seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          *error = "--trace expects 0 or 1";
          return false;
        }
        opts->trace = value == "1";
        have_trace = true;
      } else if (flag == "--scratch-root") {
        opts->scratch_root = value;
      } else if (flag == "--golden") {
        opts->golden = value;
      } else {
        *error = "unknown flag " + flag;
        return false;
      }
    } catch (const std::exception&) {
      *error = "malformed value for " + flag + ": " + value;
      return false;
    }
  }
  if (opts->workload != "steady_grid" && opts->workload != "full_sim_grid" &&
      opts->workload != "sweep_service") {
    *error = "unknown workload '" + opts->workload + "'";
    return false;
  }
  if (!have_trace || !(opts->seconds > 0.0)) {
    *error = "--trace and a positive --seconds are required";
    return false;
  }
  if (opts->trace && opts->golden.empty()) {
    *error = "--trace 1 needs --golden";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string error;
  if (!parse(argc, argv, &opts, &error)) {
    std::cerr << "perfbench: " << error << "\n";
    return 2;
  }
  perfbench::HostClock clock;
  perfbench::Report report;
  std::string json;
  try {
    std::cout << "perfbench " << opts.workload << " seed=" << opts.seed
              << " seconds=" << opts.seconds << " trace=" << opts.trace
              << "\n";
    if (opts.trace) {
      perfbench::run_traced(opts, clock, report);
    } else if (opts.workload == "sweep_service") {
      perfbench::run_service(opts, clock, report);
    } else {
      perfbench::run_grid(opts, clock, report);
    }
    perfbench::report_calibration(clock, report);
    if (report.attempted() == 0) {
      throw std::runtime_error("no operation was attempted");
    }
    const double error_rate = static_cast<double>(report.failed()) /
                              static_cast<double>(report.attempted());
    report.set("peak_rss_mb", perfbench::peak_rss_mb(), "MiB");
    report.set("success_rate", 1.0 - error_rate, "fraction");
    report.set("error_rate", error_rate, "fraction");
    json = report.json(opts.trace ? perfbench::per_layer_names() : kEndToEnd);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  std::cout << "  operations attempted=" << report.attempted()
            << " failed=" << report.failed() << "\n"
            << json << std::endl;
  return report.failed() == 0 ? 0 : 1;
}
