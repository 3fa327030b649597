// Statistics and host-speed normalisation helpers of the benchmark.
//
// Every percentile carries its sample count and the number of samples
// beyond it, so a reader can tell a tail backed by many samples from
// one backed by a handful. Normalisation turns a raw host time into a
// calibrated one: raw * (nominal / measured)^exponent, where `measured`
// is the calibration kernel's time taken beside the sample (see
// calib.hpp).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One order statistic of a sample set.
struct Percentile {
  double value = 0.0;
  /// Samples the statistic was taken over.
  std::size_t n = 0;
  /// Samples strictly greater than `value`.
  std::size_t beyond = 0;
};

/// The q-th percentile (0 <= q <= 100) by linear interpolation between
/// order statistics (the "type 7" estimator). Empty input gives n = 0
/// and value 0.
[[nodiscard]] Percentile percentile(std::vector<double> samples, double q);

[[nodiscard]] double median(std::vector<double> samples);

/// Quartiles as Python's statistics.quantiles(values, n=4) gives them
/// (the default "exclusive" method). Needs at least two samples.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
  /// (q3 - q1) / q2, the spread the benchmark's bounds are judged on;
  /// 0 when q2 is 0.
  [[nodiscard]] double spread() const;
};
[[nodiscard]] Quartiles quartiles(std::vector<double> samples);

/// raw * (nominal / measured)^exponent; measured must be positive.
[[nodiscard]] double normalize(double raw, double nominal, double measured,
                               double exponent);

/// Median of values[index - half .. index + half], clipped to the
/// vector: the local host-speed reference for a sample taken beside
/// calibration `index`, robust to one slow calibration.
[[nodiscard]] double rolling_median(const std::vector<double>& values,
                                    std::size_t index, std::size_t half);

/// A timing series whose samples each remember the calibration taken
/// beside them.
struct Series {
  std::vector<double> raw;
  std::vector<std::size_t> calib;

  void add(double value, std::size_t calibration) {
    raw.push_back(value);
    calib.push_back(calibration);
  }
  [[nodiscard]] std::size_t size() const { return raw.size(); }
};

/// The end result of a run: named metrics with units, plus the
/// correctness tally.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Records `p` under `name` and prints "name = v (n=.., beyond=..)".
  void set_percentile(const std::string& name, const Percentile& p,
                      const std::string& unit);
  /// Counts one attempted operation; a false `ok` also counts a failure
  /// and prints `what` to stderr.
  void check(bool ok, const std::string& what);

  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] bool has(const std::string& name) const {
    return metrics_.count(name) != 0;
  }
  [[nodiscard]] double value(const std::string& name) const {
    return metrics_.at(name).first;
  }

  /// The run's one-line JSON result: correct, attempted,
  /// failed and the metrics named in `wanted`, in that order.
  [[nodiscard]] std::string json(const std::vector<std::string>& wanted) const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

}  // namespace perfbench
