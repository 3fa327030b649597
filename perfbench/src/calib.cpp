#include "calib.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kTableWords = (2U << 20U) / sizeof(std::uint64_t);
constexpr std::size_t kSteps = 1U << 18U;

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30U;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27U;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31U);
}

}  // namespace

HostClock::HostClock() : table_(kTableWords) {
  for (std::size_t i = 0; i < table_.size(); ++i) {
    table_[i] = mix(i);
  }
}

std::size_t HostClock::calibrate() {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t x = state_;
  for (std::size_t i = 0; i < kSteps; ++i) {
    x = mix(x + i);
    const std::size_t a = x & (kTableWords - 1);
    const std::size_t b = (x >> 32U) & (kTableWords - 1);
    table_[a] += mix(table_[b] ^ x);
  }
  state_ = x;
  calib_ms_.push_back(ms_since(t0));
  return calib_ms_.size() - 1;
}

double HostClock::normalize(double raw, std::size_t index) const {
  return perfbench::normalize(raw, kNominalMs,
                              rolling_median(calib_ms_, index, kHalfWindow),
                              kExponent);
}

std::vector<double> HostClock::normalize(const Series& series) const {
  std::vector<double> out;
  out.reserve(series.size());
  for (std::size_t i = 0; i < series.size(); ++i) {
    out.push_back(normalize(series.raw[i], series.calib[i]));
  }
  return out;
}

}  // namespace perfbench
