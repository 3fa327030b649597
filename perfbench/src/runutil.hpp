// Small run-time helpers shared by the workloads.
#pragma once

#include <sys/resource.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <system_error>

namespace perfbench {

/// What every workload run receives from the command line.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Parent of the per-process scratch directories.
  std::string scratch_root = ".bench_run";
  /// tests/golden/trace_digests.txt of the checkout (read only).
  std::string golden;
};

/// A per-process scratch directory, <root>/<tag>-<pid>, removed when
/// the owner goes away.
class ScratchDir {
 public:
  ScratchDir(const std::string& root, const std::string& tag)
      : path_(root + "/" + tag + "-" + std::to_string(::getpid())) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() { (void)remove(); }

  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

  /// Removes the directory now; false when something is left behind.
  bool remove() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
    return !std::filesystem::exists(path_, ec);
  }

 private:
  std::string path_;
};

/// Peak resident set of this process, in MiB.
[[nodiscard]] inline double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
