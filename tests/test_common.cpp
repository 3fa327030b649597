// Unit tests for the common utilities: contracts, strong ids, RNG,
// statistics, tables, the Env tunable store and the JSON writer.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <vector>

#include "repro/common/assert.hpp"
#include "repro/common/env.hpp"
#include "repro/common/hash.hpp"
#include "repro/common/json.hpp"
#include "repro/common/rng.hpp"
#include "repro/common/stats.hpp"
#include "repro/common/strong_id.hpp"
#include "repro/common/table.hpp"
#include "repro/common/units.hpp"

namespace repro {
namespace {

TEST(Assert, RequireThrowsOnViolation) {
  EXPECT_THROW(REPRO_REQUIRE(1 == 2), ContractViolation);
  EXPECT_NO_THROW(REPRO_REQUIRE(1 == 1));
}

TEST(Assert, MessageContainsLocation) {
  try {
    REPRO_REQUIRE_MSG(false, "custom message");
    FAIL() << "expected throw";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("custom message"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_common.cpp"),
              std::string::npos);
  }
}

TEST(Assert, UnreachableThrows) {
  EXPECT_THROW(REPRO_UNREACHABLE("should not happen"), ContractViolation);
}

TEST(StrongId, DistinctTagTypesDoNotMix) {
  static_assert(!std::is_convertible_v<NodeId, ProcId>);
  static_assert(!std::is_convertible_v<std::uint32_t, NodeId>);
  const NodeId a(3);
  const NodeId b(3);
  EXPECT_EQ(a, b);
  EXPECT_LT(NodeId(2), a);
}

TEST(StrongId, HashAndIncrement) {
  std::set<VPage> pages;
  VPage p(10);
  pages.insert(p);
  ++p;
  pages.insert(p);
  EXPECT_EQ(pages.size(), 2u);
  EXPECT_EQ(p.value(), 11u);
  EXPECT_EQ(std::hash<VPage>{}(VPage(7)), std::hash<VPage>{}(VPage(7)));
}

TEST(StrongId, IdRangeIteratesDensely) {
  std::uint32_t expected = 0;
  for (const NodeId n : id_range<NodeId>(5)) {
    EXPECT_EQ(n.value(), expected++);
  }
  EXPECT_EQ(expected, 5u);
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(ns_to_seconds(kNsPerSec), 1.0);
  EXPECT_DOUBLE_EQ(ns_to_ms(kNsPerMs), 1.0);
  EXPECT_EQ(kMiB, 1024u * 1024u);
}

/// The byte-serial FNV-1a round StateHash::mix must equal.
std::uint64_t byte_serial_mix(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffu;
    hash *= 0x00000100000001b3ull;
  }
  return hash;
}

TEST(StateHash, MatchesByteSerialReference) {
  std::vector<std::uint64_t> values = {0, 1, 0x0101010101010101ull,
                                       0x8182838485868788ull,
                                       0xff00ff00ff00ff01ull};
  for (int k = 1; k <= 8; ++k) {
    // 2^(8k) - 1 (k bytes of ones) and, below 2^64, 2^(8k).
    values.push_back(k == 8 ? ~std::uint64_t{0} : (1ull << (8 * k)) - 1);
    if (k < 8) {
      values.push_back(1ull << (8 * k));
    }
  }
  Rng rng(2024);
  for (int i = 0; i < 200; ++i) {
    // Random values with every count of significant bytes.
    const int shift = 8 * (i % 8);
    values.push_back(rng.next_u64() >> shift);
  }
  std::uint64_t reference = 0xcbf29ce484222325ull;
  StateHash chained;
  for (const std::uint64_t v : values) {
    StateHash fresh;
    fresh.mix(v);
    EXPECT_EQ(fresh.value(), byte_serial_mix(0xcbf29ce484222325ull, v)) << v;
    reference = byte_serial_mix(reference, v);
    chained.mix(v);
    EXPECT_EQ(chained.value(), reference) << v;
  }
}

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(13), 13u);
  }
}

TEST(Rng, NextBelowRejectsZeroBound) {
  Rng rng(7);
  EXPECT_THROW(rng.next_below(0), ContractViolation);
}

TEST(Rng, NextBelowRoughlyUniform) {
  Rng rng(99);
  constexpr std::uint64_t kBuckets = 8;
  constexpr int kSamples = 80000;
  std::array<int, kBuckets> counts{};
  for (int i = 0; i < kSamples; ++i) {
    counts[rng.next_below(kBuckets)]++;
  }
  const double expected = static_cast<double>(kSamples) / kBuckets;
  for (const int c : counts) {
    EXPECT_NEAR(c, expected, expected * 0.1);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(RunningStat, MeanAndVariance) {
  RunningStat st;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    st.add(x);
  }
  EXPECT_EQ(st.count(), 8u);
  EXPECT_DOUBLE_EQ(st.mean(), 5.0);
  EXPECT_NEAR(st.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(st.min(), 2.0);
  EXPECT_DOUBLE_EQ(st.max(), 9.0);
  EXPECT_DOUBLE_EQ(st.sum(), 40.0);
}

TEST(RunningStat, EmptyIsSafe) {
  const RunningStat st;
  EXPECT_EQ(st.count(), 0u);
  EXPECT_DOUBLE_EQ(st.mean(), 0.0);
  EXPECT_DOUBLE_EQ(st.variance(), 0.0);
}

TEST(Percentile, InterpolatesLinearly) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
  EXPECT_THROW(percentile(xs, 1.5), ContractViolation);
}

TEST(Slowdown, SignConvention) {
  EXPECT_DOUBLE_EQ(slowdown(1.5, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(slowdown(0.5, 1.0), -0.5);
  EXPECT_THROW(slowdown(1.0, 0.0), ContractViolation);
}

TEST(Geomean, Basics) {
  EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
  EXPECT_THROW(geomean({1.0, -1.0}), ContractViolation);
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, RejectsWrongArity) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(TextTable, CsvOutput) {
  TextTable t({"x", "y"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "x,y\n1,2\n");
}

TEST(BarChart, RendersBarsAndBaseline) {
  BarChart chart("demo", "s");
  chart.add("first", 1.0);
  chart.add("second", 2.0, 0.5);
  chart.set_baseline(1.0);
  const std::string s = chart.to_string(40);
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find('#'), std::string::npos);
  EXPECT_NE(s.find('/'), std::string::npos);  // overhead stripe
  EXPECT_NE(s.find('!'), std::string::npos);  // baseline marker
}

TEST(BarChart, RejectsNegativeValues) {
  BarChart chart("demo");
  EXPECT_THROW(chart.add("bad", -1.0), ContractViolation);
}

TEST(Format, Percent) {
  EXPECT_EQ(fmt_percent(0.248), "+24.8%");
  EXPECT_EQ(fmt_percent(-0.05), "-5.0%");
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
}

TEST(Env, OverrideAndUnset) {
  Env env;
  EXPECT_FALSE(env.get("REPRO_TEST_KEY").has_value());
  env.set("REPRO_TEST_KEY", "17");
  EXPECT_EQ(env.get_int("REPRO_TEST_KEY", 0), 17);
  env.unset("REPRO_TEST_KEY");
  EXPECT_EQ(env.get_int("REPRO_TEST_KEY", 5), 5);
}

TEST(Env, TypedAccessors) {
  Env env;
  env.set("K_INT", "42");
  env.set("K_DBL", "2.5");
  env.set("K_BOOL", "true");
  EXPECT_EQ(env.get_int("K_INT", 0), 42);
  EXPECT_DOUBLE_EQ(env.get_double("K_DBL", 0.0), 2.5);
  EXPECT_TRUE(env.get_bool("K_BOOL", false));
  EXPECT_EQ(env.get_string("K_MISSING", "dflt"), "dflt");
}

TEST(Env, MalformedValuesThrow) {
  Env env;
  env.set("K", "not-a-number");
  EXPECT_THROW(env.get_int("K", 0), ContractViolation);
  EXPECT_THROW(env.get_double("K", 0.0), ContractViolation);
  EXPECT_THROW(env.get_bool("K", false), ContractViolation);
}

TEST(Env, ScopedOverrideRestores) {
  Env& global = Env::global();
  global.set("SCOPED_KEY", "outer");
  {
    ScopedEnv guard("SCOPED_KEY", "inner");
    EXPECT_EQ(global.get_string("SCOPED_KEY", ""), "inner");
  }
  EXPECT_EQ(global.get_string("SCOPED_KEY", ""), "outer");
  global.unset("SCOPED_KEY");
}

TEST(JsonWriter, NestsWithCommasAndRowLines) {
  json::Writer w;
  w.begin_object().field("name", "cell");
  w.key("flags").begin_array().value(1).value(false).end_array();
  w.key("empty").begin_array().end_array();
  w.key("rows").begin_array();
  w.begin_object().field("n", -3);
  w.field("big", std::numeric_limits<std::uint64_t>::max()).end_object();
  w.begin_array().begin_object().field("k", true).end_object().end_array();
  w.end_array().key("tail").begin_object().field("x", 0.5).end_object();
  w.end_object();
  EXPECT_EQ(w.finish(),
            "{\"name\": \"cell\", \"flags\": [1, false], \"empty\": [], "
            "\"rows\": [\n"
            "  {\"n\": -3, \"big\": 18446744073709551615},\n"
            "  [\n"
            "    {\"k\": true}\n"
            "  ]\n"
            "], \"tail\": {\"x\": 0.5}}\n");
}

TEST(JsonWriter, EscapesControlCharacters) {
  json::Writer w;
  w.begin_object()
      .field("k\"ey", std::string("q\"b\\n\nt\tr\r\x01\x1f\x7f\xc3\xa9"))
      .end_object();
  EXPECT_EQ(w.finish(),
            "{\"k\\\"ey\": "
            "\"q\\\"b\\\\n\\nt\\tr\\r\\u0001\\u001f\x7f\xc3\xa9\"}\n");
}

TEST(JsonWriter, WritesShortestRoundTripDoubles) {
  const auto render = [](double v) {
    json::Writer w;
    w.value(v);
    return w.finish();
  };
  EXPECT_EQ(render(2.0), "2\n");
  EXPECT_EQ(render(0.1), "0.1\n");
  EXPECT_EQ(render(-1.5e-7), "-1.5e-07\n");
  EXPECT_EQ(render(1.0 / 3.0), "0.3333333333333333\n");
  EXPECT_EQ(render(std::numeric_limits<double>::quiet_NaN()), "null\n");
  EXPECT_EQ(render(std::numeric_limits<double>::infinity()), "null\n");
}

TEST(JsonWriter, RejectsMalformedStructure) {
  json::Writer keyless;
  keyless.begin_object();
  EXPECT_THROW(keyless.value(1), ContractViolation);
  json::Writer mismatched;
  mismatched.begin_array();
  EXPECT_THROW(mismatched.key("k"), ContractViolation);
  EXPECT_THROW(mismatched.end_object(), ContractViolation);
  EXPECT_THROW(mismatched.finish(), ContractViolation);
  json::Writer twice;
  twice.value(1);
  EXPECT_THROW(twice.value(2), ContractViolation);
}

}  // namespace
}  // namespace repro
