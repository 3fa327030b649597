#include "workloads.hpp"

#include "repro/nas/workload.hpp"

namespace perfbench {

using repro::harness::RunConfig;
using repro::nas::UpmMode;
using repro::service::CellSpec;

namespace {

const std::vector<std::string> kBenchmarks = {"BT", "SP", "CG", "MG", "FT"};

RunConfig cell_config(const std::string& benchmark,
                      const std::string& placement, UpmMode mode,
                      std::uint32_t iterations) {
  RunConfig config;
  config.benchmark = benchmark;
  config.placement = placement;
  config.upm_mode = mode;
  config.iterations = iterations;
  return config;
}

/// base, upmlib, irixmig, recrep or replay.
std::string family_of(const RunConfig& config) {
  if (!config.replay.empty()) {
    return "replay";
  }
  if (config.kernel_migration) {
    return "irixmig";
  }
  switch (config.upm_mode) {
    case UpmMode::kDistribution:
      return "upmlib";
    case UpmMode::kRecordReplay:
      return "recrep";
    case UpmMode::kOff:
      break;
  }
  return "base";
}

Cell make_cell(RunConfig config) {
  std::string family = family_of(config);
  return Cell{std::move(family), std::move(config)};
}

void add_warmup(GridDef& grid) {
  for (const Cell& cell : grid.cells) {
    bool seen = false;
    for (const Cell& w : grid.warmup) {
      seen = seen || (w.config.benchmark == cell.config.benchmark &&
                      w.config.replay == cell.config.replay);
    }
    if (!seen) {
      grid.warmup.push_back(cell);
    }
  }
}

}  // namespace

std::string Cell::key() const {
  return (config.replay.empty() ? "" : "replay:") + config.benchmark + " " +
         config.label();
}

GridDef steady_grid(std::uint64_t seed) {
  GridDef grid;
  for (const std::string& benchmark : kBenchmarks) {
    for (const std::string placement : {"ft", "rr", "rand", "wc"}) {
      for (const UpmMode mode : {UpmMode::kOff, UpmMode::kDistribution}) {
        RunConfig config = cell_config(benchmark, placement, mode, 12);
        config.seed = seed;
        grid.cells.push_back(make_cell(std::move(config)));
      }
    }
  }
  add_warmup(grid);
  return grid;
}

GridDef full_sim_grid(const std::string& dump_dir) {
  constexpr std::uint32_t kIterations = 6;
  GridDef grid;
  for (const std::string& benchmark : kBenchmarks) {
    for (const std::string placement : {"rr", "wc"}) {
      RunConfig config =
          cell_config(benchmark, placement, UpmMode::kOff, kIterations);
      config.kernel_migration = true;
      grid.cells.push_back(make_cell(std::move(config)));
    }
  }
  for (const std::string benchmark : {"BT", "SP"}) {
    for (const std::string placement : {"ft", "rr", "wc"}) {
      grid.cells.push_back(make_cell(cell_config(
          benchmark, placement, UpmMode::kRecordReplay, kIterations)));
    }
  }
  for (const std::string benchmark : {"BT", "FT"}) {
    Dump dump{cell_config(benchmark, "ft", UpmMode::kOff, kIterations),
              dump_dir + "/" + benchmark + ".rtrc"};
    for (const auto& [placement, mode] :
         {std::pair{"ft", UpmMode::kOff},
          std::pair{"wc", UpmMode::kDistribution}}) {
      RunConfig config = cell_config(benchmark, placement, mode, kIterations);
      config.replay = dump.path;
      grid.cells.push_back(make_cell(std::move(config)));
    }
    grid.dumps.push_back(std::move(dump));
  }
  add_warmup(grid);
  return grid;
}

std::vector<Cell> irixmig_base_twins(const GridDef& grid) {
  std::vector<Cell> twins;
  for (const Cell& cell : grid.cells) {
    if (cell.family == "irixmig") {
      RunConfig config = cell.config;
      config.kernel_migration = false;
      // Full simulation on both sides: a fast-forwarded twin would
      // execute fewer, later iterations than its IRIXmig cell.
      config.no_fast_forward = true;
      twins.push_back(make_cell(std::move(config)));
    }
  }
  return twins;
}

std::vector<CellSpec> service_warm_grid() {
  std::vector<CellSpec> cells;
  for (const std::string placement : {"ft", "rr", "wc"}) {
    for (const std::string upm : {"off", "dist"}) {
      CellSpec spec;
      spec.benchmark = "CG";
      spec.placement = placement;
      spec.upm = upm;
      spec.iterations = 3;
      spec.size_scale = 0.25;
      cells.push_back(std::move(spec));
    }
  }
  return cells;
}

CellSpec service_cold_cell(std::uint64_t seed, std::size_t n) {
  static const char* const kShapes[kColdTemplates][2] = {
      {"CG", "off"}, {"CG", "dist"}, {"MG", "off"},
      {"MG", "dist"}, {"FT", "off"}, {"FT", "dist"}};
  CellSpec spec;
  spec.benchmark = kShapes[n % kColdTemplates][0];
  spec.upm = kShapes[n % kColdTemplates][1];
  spec.placement = "rand";
  spec.iterations = 3;
  spec.size_scale = 0.25;
  // Distinct from every earlier request of this run, so never cached.
  spec.seed = seed * 1000003ULL + n + 1;
  return spec;
}

std::vector<Cell> service_cells(std::uint64_t seed) {
  std::vector<CellSpec> specs = service_warm_grid();
  for (std::size_t n = 0; n < kColdTemplates; ++n) {
    specs.push_back(service_cold_cell(seed, n));
  }
  std::vector<Cell> cells;
  for (const CellSpec& spec : specs) {
    RunConfig config = spec.to_config();
    config.trace = false;  // the span driver mirrors untraced runs
    cells.push_back(make_cell(std::move(config)));
  }
  return cells;
}

}  // namespace perfbench
