// Crash-safe file writes for experiment outputs.
//
// Every BENCH_*.json, SARIF file, trace dump and sweep checkpoint is
// written tmp + fsync + rename: a killed or OOM'd sweep leaves either
// the old complete file or the new complete file, never a truncated one
// for tools/perf_compare.py to choke on.
#pragma once

#include <string>

namespace repro {

/// Writes `content` to `path` atomically: the data lands in
/// `path.tmp`, is fsync'd, and is renamed over `path` (POSIX rename is
/// atomic within a filesystem). Parent directories are created as
/// needed. Throws ContractViolation on any I/O failure, leaving
/// `path` untouched.
void atomic_write_file(const std::string& path, const std::string& content);

}  // namespace repro
