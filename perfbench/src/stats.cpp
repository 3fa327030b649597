#include "stats.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iostream>
#include <stdexcept>

namespace perfbench {

Percentile percentile(std::vector<double> samples, double q) {
  Percentile p;
  p.n = samples.size();
  if (samples.empty()) {
    return p;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = std::clamp(q, 0.0, 100.0) / 100.0 *
                      static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  p.value = samples[lo] + (samples[hi] - samples[lo]) * frac;
  p.beyond = static_cast<std::size_t>(
      samples.end() -
      std::upper_bound(samples.begin(), samples.end(), p.value));
  return p;
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0).value;
}

double Quartiles::spread() const { return q2 == 0.0 ? 0.0 : (q3 - q1) / q2; }

Quartiles quartiles(std::vector<double> samples) {
  if (samples.size() < 2) {
    throw std::invalid_argument("quartiles need at least two samples");
  }
  std::sort(samples.begin(), samples.end());
  const auto ld = static_cast<long>(samples.size());
  const long m = ld + 1;
  double out[3] = {0.0, 0.0, 0.0};
  for (long i = 1; i < 4; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out[i - 1] = (samples[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(4 - delta) +
                  samples[static_cast<std::size_t>(j)] *
                      static_cast<double>(delta)) /
                 4.0;
  }
  return Quartiles{out[0], out[1], out[2]};
}

double normalize(double raw, double nominal, double measured,
                 double exponent) {
  if (!(measured > 0.0)) {
    throw std::invalid_argument("calibration time must be positive");
  }
  return raw * std::pow(nominal / measured, exponent);
}

double rolling_median(const std::vector<double>& values, std::size_t index,
                      std::size_t half) {
  if (index >= values.size()) {
    throw std::out_of_range("rolling_median index");
  }
  const std::size_t first = index > half ? index - half : 0;
  const std::size_t last = std::min(values.size() - 1, index + half);
  return median(std::vector<double>(
      values.begin() + static_cast<long>(first),
      values.begin() + static_cast<long>(last) + 1));
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::set_percentile(const std::string& name, const Percentile& p,
                            const std::string& unit) {
  set(name, p.value, unit);
  std::cout << "  " << name << " = " << p.value << " " << unit
            << " (n=" << p.n << ", beyond=" << p.beyond << ")\n";
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) {
    throw std::invalid_argument("non-finite metric value");
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

std::string Report::json(const std::vector<std::string>& wanted) const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  const char* sep = "";
  auto emit = [&](const std::string& name) {
    const auto& [value, unit] = metrics_.at(name);
    out += sep;
    out += "\"" + name + "\": {\"value\": " + number(value) +
           ", \"unit\": \"" + unit + "\"}";
    sep = ", ";
  };
  for (const std::string& name : wanted) {
    emit(name);
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
