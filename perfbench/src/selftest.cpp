// Self-test of the benchmark's statistics and normalisation helpers.
// Exits 0 when every check holds; prints each failure otherwise.
//
//   perfbench_selftest
#include <cmath>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentile() {
  using perfbench::percentile;
  // 1..10: type-7 p50 interpolates between 5 and 6; p90 between 9 and 10.
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) {
    v.push_back(i);
  }
  const auto p50 = percentile(v, 50.0);
  expect(near(p50.value, 5.5) && p50.n == 10 && p50.beyond == 5,
         "p50 of 1..10 is 5.5 with 5 beyond");
  const auto p90 = percentile(v, 90.0);
  expect(near(p90.value, 9.1) && p90.n == 10 && p90.beyond == 1,
         "p90 of 1..10 is 9.1 with 1 beyond");
  const auto p100 = percentile(v, 100.0);
  expect(near(p100.value, 10.0) && p100.beyond == 0, "p100 is the max");
  const auto p0 = percentile(v, 0.0);
  expect(near(p0.value, 1.0) && p0.beyond == 9, "p0 is the min");
  // Ties: nothing equal to the value counts as beyond it.
  const auto tied = percentile({2.0, 2.0, 2.0, 3.0}, 50.0);
  expect(near(tied.value, 2.0) && tied.beyond == 1, "ties are not beyond");
  const auto empty = percentile({}, 50.0);
  expect(empty.n == 0 && empty.beyond == 0 && empty.value == 0.0,
         "empty input gives n = 0");
  const auto one = percentile({7.0}, 90.0);
  expect(near(one.value, 7.0) && one.n == 1 && one.beyond == 0,
         "a single sample is every percentile");
  expect(near(perfbench::median({3.0, 1.0, 2.0}), 2.0), "median of 3");
}

void test_quartiles() {
  // Python: statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
  std::vector<double> v;
  for (int i = 1; i <= 10; ++i) {
    v.push_back(i);
  }
  const auto q = perfbench::quartiles(v);
  expect(near(q.q1, 2.75) && near(q.q2, 5.5) && near(q.q3, 8.25),
         "quartiles of 1..10 match Python's exclusive method");
  expect(near(q.spread(), (8.25 - 2.75) / 5.5), "spread is IQR / median");
  // Python: statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
  const auto two = perfbench::quartiles({2.0, 1.0});
  expect(near(two.q1, 0.75) && near(two.q2, 1.5) && near(two.q3, 2.25),
         "quartiles of two samples extrapolate like Python");
  bool threw = false;
  try {
    (void)perfbench::quartiles({1.0});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "quartiles of one sample are refused");
}

void test_normalize() {
  using perfbench::normalize;
  expect(near(normalize(10.0, 4.0, 4.0, 1.0), 10.0), "nominal host: unchanged");
  expect(near(normalize(10.0, 4.0, 8.0, 1.0), 5.0), "host half speed: halved");
  expect(near(normalize(10.0, 4.0, 2.0, 1.0), 20.0),
         "host double speed: doubled");
  expect(near(normalize(10.0, 4.0, 2.0, 2.0), 40.0),
         "the exponent scales the correction");
  expect(near(normalize(10.0, 4.0, 4.0, 1.2), 10.0),
         "any exponent leaves a nominal host unchanged");
  bool threw = false;
  try {
    (void)normalize(1.0, 4.0, 0.0, 1.0);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "a zero calibration is refused");

  const std::vector<double> calib = {4.0, 4.0, 40.0, 4.0, 8.0, 8.0, 8.0};
  expect(near(perfbench::rolling_median(calib, 2, 2), 4.0),
         "one slow calibration does not move the local reference");
  expect(near(perfbench::rolling_median(calib, 0, 2), 4.0),
         "the window clips at the start");
  expect(near(perfbench::rolling_median(calib, 6, 2), 8.0),
         "the window clips at the end and follows a lasting slowdown");
}

void test_report() {
  perfbench::Report report;
  report.set("a_ms", 1.5, "ms");
  report.set("b", 2.0, "count");
  report.check(true, "ok");
  std::ostringstream err;
  std::streambuf* const saved = std::cerr.rdbuf(err.rdbuf());
  report.check(false, "deliberate failure");
  std::cerr.rdbuf(saved);
  expect(err.str().find("deliberate failure") != std::string::npos,
         "a failed check is reported on stderr");
  const std::string json = report.json({"b", "a_ms"});
  expect(json ==
             "{\"correct\": false, \"attempted\": 2, \"failed\": 1, "
             "\"metrics\": {\"b\": {\"value\": 2, \"unit\": \"count\"}, "
             "\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}",
         "report JSON: " + json);
  perfbench::Report precise;
  precise.set("x", 0.1 + 0.2, "s");
  expect(precise.json({"x"}).find("0.30000000000000004") != std::string::npos,
         "values print with every digit");
}

}  // namespace

int main() {
  test_percentile();
  test_quartiles();
  test_normalize();
  test_report();
  if (failures != 0) {
    std::cerr << failures << " self-test check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench self-test: all checks passed\n";
  return 0;
}
