// Service sweep: throughput of the sweep daemon, cold cache vs warm.
//
// Starts an in-process SweepDaemon on a temporary socket, submits the
// same 6-cell grid twice through SweepClient, and reports cells/second
// for the cold pass (every cell simulated by a forked worker) and the
// warm pass (every cell served from the memoized result cache). The
// warm/cold ratio is the headline number: it is what a long-running
// daemon buys a CI fleet that keeps re-requesting overlapping grids.
//
// Correctness ride-along: the warm digests must be byte-identical to
// the cold ones (the cache's determinism contract), or the bench exits
// nonzero.
//
// Usage: service_sweep [--benchmark=CG] [--iterations=N] [--scale=X]
//                      [--workers=N] [--json=DIR]
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "repro/common/atomic_file.hpp"
#include "repro/common/json.hpp"
#include "repro/common/table.hpp"
#include "repro/harness/cli.hpp"
#include "repro/service/client.hpp"
#include "repro/service/daemon.hpp"

using namespace repro;
using namespace repro::service;

namespace {

double wall_ms(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using repro::harness::Cli;
  std::string benchmark = "CG";
  std::uint32_t iterations = 3;
  double scale = 0.25;
  std::size_t workers = 3;
  std::string json_dir;

  Cli cli("service_sweep");
  cli.add_string("benchmark", &benchmark, "benchmark for the 6-cell grid");
  cli.add_uint("iterations", &iterations, "timed iterations per cell",
               /*min=*/1);
  cli.add_double("scale", &scale, "problem size multiplier");
  cli.add_uint("workers", &workers, "daemon worker processes", /*min=*/1,
               /*max=*/64);
  cli.add_string("json", &json_dir, "write BENCH_service_sweep.json here");
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

  const std::string base = std::filesystem::temp_directory_path() /
                           ("repro_service_sweep_" + std::to_string(getpid()));
  std::filesystem::create_directories(base);
  DaemonConfig config;
  config.socket_path = base + "/sweepd.sock";
  config.workers = workers;
  config.cache.dir = base + "/cache";
  SweepDaemon daemon(config);
  std::thread daemon_thread([&daemon] { daemon.run(); });

  SweepRequest request;
  for (const std::string placement : {"ft", "rr", "wc"}) {
    for (const std::string upm : {"off", "dist"}) {
      CellSpec spec;
      spec.benchmark = benchmark;
      spec.placement = placement;
      spec.upm = upm;
      spec.iterations = iterations;
      spec.size_scale = scale;
      request.cells.push_back(std::move(spec));
    }
  }

  SweepClient client(config.socket_path);
  int exit_code = 0;
  double cold_ms = 0.0;
  double warm_ms = 0.0;
  std::size_t warm_hits = 0;
  {
    const auto t0 = std::chrono::steady_clock::now();
    const SweepReply cold = client.submit(request);
    cold_ms = wall_ms(t0);
    const auto t1 = std::chrono::steady_clock::now();
    const SweepReply warm = client.submit(request);
    warm_ms = wall_ms(t1);
    warm_hits = warm.cache_hits;
    if (!cold.ok() || !warm.ok()) {
      std::cerr << "service_sweep: request failed: "
                << (cold.ok() ? warm.error : cold.error) << "\n";
      exit_code = 1;
    } else {
      for (std::size_t i = 0; i < request.cells.size(); ++i) {
        if (cold.cells[i].result.trace_digest !=
            warm.cells[i].result.trace_digest) {
          std::cerr << "service_sweep: warm digest diverged from cold for "
                    << warm.cells[i].result.label << "\n";
          exit_code = 1;
        }
      }
      if (warm.cache_hits != request.cells.size()) {
        std::cerr << "service_sweep: expected every warm cell from cache, got "
                  << warm.cache_hits << "/" << request.cells.size() << "\n";
        exit_code = 1;
      }
    }
  }
  if (!client.shutdown_daemon()) {
    daemon.request_shutdown();
  }
  daemon_thread.join();

  const double n = static_cast<double>(request.cells.size());
  TextTable table({"pass", "cells", "wall (ms)", "cells/s", "cache hits"});
  std::ostringstream cold_rate;
  std::ostringstream warm_rate;
  cold_rate.precision(1);
  warm_rate.precision(1);
  cold_rate << std::fixed << n / (cold_ms / 1000.0);
  warm_rate << std::fixed << n / (warm_ms / 1000.0);
  table.add_row({"cold", std::to_string(request.cells.size()),
                 std::to_string(static_cast<long>(cold_ms)), cold_rate.str(),
                 "0"});
  table.add_row({"warm", std::to_string(request.cells.size()),
                 std::to_string(static_cast<long>(warm_ms)), warm_rate.str(),
                 std::to_string(warm_hits)});
  std::cout << "Service sweep: " << benchmark << " 6-cell grid, " << workers
            << " workers\n\n";
  table.print(std::cout);
  if (warm_ms > 0.0) {
    std::cout << "\nwarm/cold speedup: "
              << static_cast<long>(cold_ms / std::max(warm_ms, 0.001)) << "x\n";
  }

  if (!json_dir.empty()) {
    const std::string name = "ServiceSweep/" + benchmark;
    json::Writer w;
    w.begin_object().field("bench", "service_sweep");
    w.key("benchmarks").begin_array();
    w.begin_object().field("name", name + "/cold").field("real_time", cold_ms);
    w.field("time_unit", "ms").field("cells", request.cells.size());
    w.end_object();
    w.begin_object().field("name", name + "/warm").field("real_time", warm_ms);
    w.field("time_unit", "ms").field("cells", request.cells.size());
    w.field("cache_hits", warm_hits).end_object();
    w.end_array().end_object();
    atomic_write_file(json_dir + "/BENCH_service_sweep.json", w.finish());
  }

  std::error_code ec;
  std::filesystem::remove_all(base, ec);
  return exit_code;
}
