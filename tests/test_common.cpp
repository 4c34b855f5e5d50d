// Unit tests for the common utility layer.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/units.hpp"

namespace grout {
namespace {

// ---------------------------------------------------------------------------
// units
// ---------------------------------------------------------------------------

TEST(Units, ByteLiterals) {
  EXPECT_EQ(1_KiB, 1024u);
  EXPECT_EQ(1_MiB, 1024u * 1024u);
  EXPECT_EQ(1_GiB, 1024u * 1024u * 1024u);
  EXPECT_EQ(3_GiB, 3u * 1024u * 1024u * 1024u);
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(1536), "1.50 KiB");
  EXPECT_EQ(format_bytes(2_MiB), "2.00 MiB");
  EXPECT_EQ(format_bytes(5_GiB + 512_MiB), "5.50 GiB");
}

TEST(SimTimeTest, Constructors) {
  EXPECT_EQ(SimTime::from_ns(1500).ns(), 1500);
  EXPECT_DOUBLE_EQ(SimTime::from_us(2.5).us(), 2.5);
  EXPECT_DOUBLE_EQ(SimTime::from_ms(1.25).ms(), 1.25);
  EXPECT_DOUBLE_EQ(SimTime::from_seconds(0.75).seconds(), 0.75);
  EXPECT_EQ(SimTime::zero().ns(), 0);
}

TEST(SimTimeTest, Arithmetic) {
  const SimTime a = SimTime::from_us(10.0);
  const SimTime b = SimTime::from_us(4.0);
  EXPECT_EQ((a + b).ns(), 14000);
  EXPECT_EQ((a - b).ns(), 6000);
  EXPECT_EQ((a * 3).ns(), 30000);
  EXPECT_EQ((3 * a).ns(), 30000);
  SimTime c = a;
  c += b;
  EXPECT_EQ(c.ns(), 14000);
  c -= b;
  EXPECT_EQ(c, a);
}

TEST(SimTimeTest, Ordering) {
  EXPECT_LT(SimTime::from_us(1.0), SimTime::from_us(2.0));
  EXPECT_GT(SimTime::max(), SimTime::from_seconds(1e6));
  EXPECT_EQ(SimTime::from_ms(1.0), SimTime::from_us(1000.0));
}

TEST(SimTimeTest, Format) {
  EXPECT_EQ(format_time(SimTime::from_seconds(2.5)), "2.500 s");
  EXPECT_EQ(format_time(SimTime::from_ms(12.0)), "12.000 ms");
  EXPECT_EQ(format_time(SimTime::from_us(3.0)), "3.000 us");
  EXPECT_EQ(format_time(SimTime::from_ns(42)), "42 ns");
}

TEST(BandwidthTest, Conversions) {
  EXPECT_DOUBLE_EQ(Bandwidth::bytes_per_sec(100.0).bps(), 100.0);
  EXPECT_DOUBLE_EQ(Bandwidth::gib_per_sec(1.0).bps(), 1073741824.0);
  EXPECT_DOUBLE_EQ(Bandwidth::mib_per_sec(1.0).bps(), 1048576.0);
  // Network convention: 4000 Mbit/s = 500 MB/s.
  EXPECT_DOUBLE_EQ(Bandwidth::mbit_per_sec(4000.0).bps(), 500e6);
}

TEST(BandwidthTest, TransferTime) {
  const Bandwidth bw = Bandwidth::bytes_per_sec(1e9);
  EXPECT_DOUBLE_EQ(bw.transfer_time(Bytes{1000000000}).seconds(), 1.0);
  EXPECT_DOUBLE_EQ(bw.transfer_time(Bytes{500000000}).seconds(), 0.5);
}

TEST(BandwidthTest, InvalidTransferThrows) {
  const Bandwidth none;
  EXPECT_FALSE(none.valid());
  EXPECT_THROW((void)none.transfer_time(1_KiB), InternalError);
}

// ---------------------------------------------------------------------------
// error
// ---------------------------------------------------------------------------

TEST(ErrorTest, RequireThrowsInvalidArgument) {
  EXPECT_NO_THROW(require(true, "fine"));
  EXPECT_THROW(require(false, "nope"), InvalidArgument);
}

TEST(ErrorTest, CheckThrowsInternalError) {
  EXPECT_NO_THROW(check(true, "fine"));
  EXPECT_THROW(check(false, "bug"), InternalError);
}

TEST(ErrorTest, MessageContainsLocationAndText) {
  try {
    require(false, "my-message");
    FAIL() << "expected throw";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("my-message"), std::string::npos);
    EXPECT_NE(what.find("test_common.cpp"), std::string::npos);
  }
}

TEST(ErrorTest, HierarchyRootsAtError) {
  EXPECT_THROW(
      { throw ParseError("p"); }, Error);
  EXPECT_THROW(
      { throw InvalidArgument("i"); }, Error);
  EXPECT_THROW(
      { throw InternalError("x"); }, std::runtime_error);
}

// ---------------------------------------------------------------------------
// rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(RngTest, NextBelowZeroThrows) {
  Rng rng(7);
  EXPECT_THROW(rng.next_below(0), InvalidArgument);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.uniform(-3.0, 5.0);
    EXPECT_GE(d, -3.0);
    EXPECT_LT(d, 5.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.next_gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.05);
}

TEST(RngTest, NextBelowRoughlyUniform) {
  Rng rng(19);
  std::vector<int> buckets(8, 0);
  constexpr int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i) ++buckets[rng.next_below(8)];
  for (const int b : buckets) {
    EXPECT_NEAR(b, kDraws / 8, kDraws / 80);  // within 10%
  }
}

// ---------------------------------------------------------------------------
// stats
// ---------------------------------------------------------------------------

TEST(RunningStatsTest, Basics) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 6.0, 8.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 8.0);
  EXPECT_NEAR(s.variance(), 20.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 20.0);
}

TEST(RunningStatsTest, SingleSampleVarianceZero) {
  RunningStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStatsTest, EmptyStatsAreZero) {
  const RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.sum(), 0.0);
}

TEST(SampleSetTest, Percentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(90.0), 90.1, 1e-9);
}

TEST(SampleSetTest, EmptyThrows) {
  SampleSet s;
  EXPECT_THROW((void)s.percentile(50.0), InvalidArgument);
}

TEST(SampleSetTest, OutOfRangePercentileThrows) {
  SampleSet s;
  s.add(1.0);
  EXPECT_THROW((void)s.percentile(-1.0), InvalidArgument);
  EXPECT_THROW((void)s.percentile(101.0), InvalidArgument);
}

TEST(SampleSetTest, SingleSample) {
  SampleSet s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(99.0), 7.0);
}

TEST(SampleSetTest, ReservoirStaysBounded) {
  SampleSet s(128, 42);
  for (int i = 0; i < 100000; ++i) s.add(static_cast<double>(i % 1000));
  EXPECT_EQ(s.count(), 100000u);
  EXPECT_EQ(s.samples().size(), 128u);
}

TEST(SampleSetTest, ReservoirPercentilesTrackExact) {
  // Long skewed stream: the seeded reservoir's p50/p95/p99 must stay close
  // to the verbatim set's. Tolerance is generous (reservoir of 4096 over
  // 200k samples) but tight enough to catch a broken replacement rule.
  SampleSet exact;
  SampleSet reservoir(4096, 7);
  Rng rng(1234);
  for (int i = 0; i < 200000; ++i) {
    // Log-normal-ish latencies: mostly ~1, occasionally large.
    const double x = std::exp(rng.next_gaussian());
    exact.add(x);
    reservoir.add(x);
  }
  EXPECT_EQ(reservoir.count(), exact.count());
  for (const double p : {50.0, 95.0, 99.0}) {
    const double e = exact.percentile(p);
    const double r = reservoir.percentile(p);
    EXPECT_NEAR(r, e, 0.15 * e) << "p" << p << " drifted: exact " << e << " reservoir " << r;
  }
}

TEST(SampleSetTest, ReservoirIsDeterministicForSeed) {
  SampleSet a(64, 9), b(64, 9);
  Rng ra(5), rb(5);
  for (int i = 0; i < 5000; ++i) {
    a.add(ra.next_double());
    b.add(rb.next_double());
  }
  EXPECT_EQ(a.samples(), b.samples());
}

TEST(SampleSetTest, ReservoirRejectsZeroCapacity) {
  EXPECT_THROW(SampleSet(0, 1), InvalidArgument);
}

// ---------------------------------------------------------------------------
// ZipfGenerator
// ---------------------------------------------------------------------------

TEST(ZipfTest, KeysInRangeAndDeterministic) {
  const ZipfGenerator zipf(17, 0.9);
  Rng a(3), b(3);
  for (int i = 0; i < 2000; ++i) {
    const std::size_t ka = zipf.next(a);
    EXPECT_LT(ka, 17u);
    EXPECT_EQ(ka, zipf.next(b));
  }
}

TEST(ZipfTest, ThetaZeroIsRoughlyUniform) {
  const ZipfGenerator zipf(8, 0.0);
  Rng rng(11);
  std::vector<int> counts(8, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++counts[zipf.next(rng)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 8.0, 0.1 * n / 8.0);
  }
}

TEST(ZipfTest, HigherThetaConcentratesOnHotKeys) {
  Rng rng(21);
  double prev_hot = 0.0;
  for (const double theta : {0.0, 0.5, 0.9}) {
    const ZipfGenerator zipf(64, theta);
    int hot = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
      if (zipf.next(rng) == 0) ++hot;
    }
    const double frac = static_cast<double>(hot) / n;
    EXPECT_GT(frac, prev_hot) << "key-0 mass must rise with theta " << theta;
    prev_hot = frac;
  }
}

TEST(ZipfTest, RejectsBadParameters) {
  EXPECT_THROW(ZipfGenerator(0, 0.5), InvalidArgument);
  EXPECT_THROW(ZipfGenerator(8, 1.0), InvalidArgument);
  EXPECT_THROW(ZipfGenerator(8, -0.1), InvalidArgument);
}

// ---------------------------------------------------------------------------
// strings
// ---------------------------------------------------------------------------

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t\nabc\r "), "abc");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StringsTest, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringsTest, SplitSingle) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

}  // namespace
}  // namespace grout
