// Host-speed calibration.
//
// The benchmark shares its host with other tenants, and identical
// serial runs of the simulator vary by tens of percent with CPU time
// equal to wall time: the host itself runs slower or faster, because
// its memory hierarchy is shared (pure ALU work does not slow down).
// A fixed kernel that calls nothing in the simulator -- hash mixing
// plus scattered read/modify/write over a 2 MiB table, which slows
// down with the simulator when neighbours contend for caches and
// memory -- runs beside each timed sample. Each sample is then reported
// as raw * (kNominalMs / local reference)^kExponent, where the local
// reference is the rolling median of the calibrations around it.
// Values therefore read as times on a host whose kernel takes exactly
// kNominalMs. The kernel slows down somewhat less than the simulator
// when the host does; kExponent, fitted on the reference host (see
// README.md), makes up the difference.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "stats.hpp"

namespace perfbench {

class HostClock {
 public:
  /// Fixed once: the kernel's time on the reference host. Changing it
  /// rescales every calibrated metric, so it never changes.
  static constexpr double kNominalMs = 4.0;
  /// Sensitivity of the simulator's speed to the kernel's, fitted on
  /// whole runs (per-sample fits read low: the kernel's own noise
  /// dilutes the slope).
  static constexpr double kExponent = 1.4;
  /// Calibrations on each side of a sample in its local reference: the
  /// host changes speed within seconds, so the window stays short.
  static constexpr std::size_t kHalfWindow = 2;
  /// A run whose calibration spread (IQR / median) exceeds this is
  /// reported as drifting: its calibrated values still print, flagged.
  static constexpr double kDriftLimit = 0.35;

  HostClock();

  /// Runs the kernel once and records its time; returns its index.
  std::size_t calibrate();

  /// Calibrated value of a raw sample taken beside calibration `index`.
  [[nodiscard]] double normalize(double raw, std::size_t index) const;
  [[nodiscard]] std::vector<double> normalize(const Series& series) const;

  [[nodiscard]] const std::vector<double>& calibrations_ms() const {
    return calib_ms_;
  }

 private:
  std::vector<std::uint64_t> table_;
  std::uint64_t state_ = 0x9e3779b97f4a7c15ULL;
  std::vector<double> calib_ms_;
};

/// Milliseconds since `t0` on the steady clock.
[[nodiscard]] inline double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench
