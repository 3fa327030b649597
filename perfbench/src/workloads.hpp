// The benchmark's workloads as lists of cells (see README.md for why
// each exists).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "repro/harness/run.hpp"
#include "repro/service/cellspec.hpp"

namespace perfbench {

/// One grid cell. `family` groups cells by migration engine for the
/// per-layer ns/op metrics: base, upmlib, irixmig, recrep or replay.
struct Cell {
  std::string family;
  repro::harness::RunConfig config;

  /// "<benchmark> <label>", or "replay:<benchmark> <label>".
  [[nodiscard]] std::string key() const;
};

/// An RTRC dump the workload's replay cells read, made during set-up.
struct Dump {
  repro::harness::RunConfig config;
  std::string path;
};

struct GridDef {
  std::vector<Cell> cells;
  std::vector<Dump> dumps;
  /// First cell of each benchmark: the discarded warm-up pass.
  std::vector<Cell> warmup;
};

/// steady_grid: Fig. 4's {BT,SP,CG,MG,FT} x {ft,rr,rand,wc} x
/// {base,upmlib} at 12 iterations, where the fast-forward engages.
/// `seed` drives the rand placement.
[[nodiscard]] GridDef steady_grid(std::uint64_t seed);

/// full_sim_grid: cells where the fast-forward declines -- the kernel
/// migration daemon, record-replay and RTRC trace replay -- at 6
/// iterations. Dumps land in `dump_dir`.
[[nodiscard]] GridDef full_sim_grid(const std::string& dump_dir);

/// The base twins of full_sim_grid's IRIXmig cells (same benchmark,
/// placement and iterations, no daemon, fully simulated): the traced
/// run isolates the daemon's cost per op against them.
[[nodiscard]] std::vector<Cell> irixmig_base_twins(const GridDef& grid);

/// The 6-cell golden-size grid the service keeps cached (CG x
/// {ft,rr,wc} x {off,dist}, 3 iterations, size scale 0.25).
[[nodiscard]] std::vector<repro::service::CellSpec> service_warm_grid();

/// The n-th cold request of a run: golden-size single cells that rotate
/// over kColdTemplates shapes, each under a fresh rand-placement seed.
inline constexpr std::size_t kColdTemplates = 6;
[[nodiscard]] repro::service::CellSpec service_cold_cell(std::uint64_t seed,
                                                          std::size_t n);

/// The service cells as untraced grid cells (the traced run's span
/// driver walks these): the warm grid plus one cold cell of each
/// template.
[[nodiscard]] std::vector<Cell> service_cells(std::uint64_t seed);

}  // namespace perfbench
