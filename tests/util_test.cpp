#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>

#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/encode.hpp"
#include "util/grid.hpp"
#include "util/heatmap.hpp"
#include "util/io.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/safe_math.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace rota::util {
namespace {

// ---------------------------------------------------------------- check ----

TEST(Check, RequireThrowsPreconditionError) {
  EXPECT_THROW(ROTA_REQUIRE(false, "boom"), precondition_error);
  EXPECT_NO_THROW(ROTA_REQUIRE(true, "fine"));
}

TEST(Check, EnsureThrowsInvariantError) {
  EXPECT_THROW(ROTA_ENSURE(false, "broken"), invariant_error);
  EXPECT_NO_THROW(ROTA_ENSURE(true, "held"));
}

TEST(Check, MessageCarriesContext) {
  try {
    ROTA_REQUIRE(1 == 2, "one is not two");
    FAIL() << "should have thrown";
  } catch (const precondition_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("one is not two"), std::string::npos);
  }
}

// ----------------------------------------------------------------- math ----

TEST(Math, GcdLcmBasics) {
  EXPECT_EQ(gcd(14, 8), 2);
  EXPECT_EQ(lcm(14, 8), 56);
  EXPECT_EQ(gcd(7, 7), 7);
  EXPECT_EQ(lcm(1, 9), 9);
}

TEST(Math, GcdLcmRejectNonPositive) {
  EXPECT_THROW((void)gcd(0, 3), precondition_error);
  EXPECT_THROW((void)lcm(3, 0), precondition_error);
  EXPECT_THROW((void)gcd(-2, 3), precondition_error);
}

TEST(Math, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 5), 0);
  EXPECT_EQ(ceil_div(1, 5), 1);
  EXPECT_EQ(ceil_div(5, 5), 1);
  EXPECT_EQ(ceil_div(6, 5), 2);
  EXPECT_THROW((void)ceil_div(1, 0), precondition_error);
  EXPECT_THROW((void)ceil_div(-1, 2), precondition_error);
}

TEST(Math, RoundUp) {
  EXPECT_EQ(round_up(0, 4), 0);
  EXPECT_EQ(round_up(13, 4), 16);
  EXPECT_EQ(round_up(16, 4), 16);
}

TEST(Math, DivisorsOfTwelve) {
  const std::vector<std::int64_t> expected{1, 2, 3, 4, 6, 12};
  EXPECT_EQ(divisors(12), expected);
}

TEST(Math, DivisorsOfPrime) {
  const std::vector<std::int64_t> expected{1, 97};
  EXPECT_EQ(divisors(97), expected);
}

TEST(Math, DivisorsOfOne) {
  EXPECT_EQ(divisors(1), std::vector<std::int64_t>{1});
}

TEST(Math, DivisorsOfPerfectSquareEmitTheRootOnce) {
  const std::vector<std::int64_t> expected{1, 2, 3, 4, 6, 9, 12, 18, 36};
  EXPECT_EQ(divisors(36), expected);
}

// --------------------------------------------------------------- encode ----

TEST(Encode, HexfloatRoundTripsBitForBit) {
  EXPECT_EQ(hexfloat(-0.5), "-0x1p-1");
  for (const double v : {0.1, -1e-310, std::numeric_limits<double>::max()}) {
    EXPECT_EQ(std::strtod(hexfloat(v).c_str(), nullptr), v) << hexfloat(v);
  }
}

class GcdLcmProperty : public ::testing::TestWithParam<
                           std::tuple<std::int64_t, std::int64_t>> {};

TEST_P(GcdLcmProperty, ProductIdentity) {
  const auto [a, b] = GetParam();
  EXPECT_EQ(gcd(a, b) * lcm(a, b), a * b);
  EXPECT_EQ(a % gcd(a, b), 0);
  EXPECT_EQ(b % gcd(a, b), 0);
  EXPECT_EQ(lcm(a, b) % a, 0);
  EXPECT_EQ(lcm(a, b) % b, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GcdLcmProperty,
    ::testing::Combine(::testing::Values<std::int64_t>(1, 2, 3, 8, 12, 14,
                                                       15, 56, 97),
                       ::testing::Values<std::int64_t>(1, 4, 7, 9, 12, 14,
                                                       32, 56)));

class DivisorsProperty : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(DivisorsProperty, EveryEntryDividesSortedUnique) {
  const std::int64_t n = GetParam();
  const auto divs = divisors(n);
  ASSERT_FALSE(divs.empty());
  EXPECT_EQ(divs.front(), 1);
  EXPECT_EQ(divs.back(), n);
  for (std::size_t i = 0; i < divs.size(); ++i) {
    EXPECT_EQ(n % divs[i], 0);
    if (i > 0) {
      EXPECT_LT(divs[i - 1], divs[i]);
    }
  }
  // Count check against the naive reference.
  std::int64_t count = 0;
  for (std::int64_t d = 1; d <= n; ++d)
    if (n % d == 0) ++count;
  EXPECT_EQ(static_cast<std::int64_t>(divs.size()), count);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DivisorsProperty,
                         ::testing::Values(1, 2, 6, 12, 36, 97, 100, 168, 255,
                                           1024));

// ------------------------------------------------------------ safe math ----

TEST(SafeMath, CheckedOpsAgreeWithPlainArithmeticInRange) {
  EXPECT_EQ(checked_add(3, 4), 7);
  EXPECT_EQ(checked_sub(3, 4), -1);
  EXPECT_EQ(checked_mul(-6, 7), -42);
  EXPECT_EQ(checked_lcm(14, 8), 56);
  // Largest exactly representable products still work.
  const std::int64_t big = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(checked_add(big - 1, 1), big);
  EXPECT_EQ(checked_mul(big / 2, 2), big - 1);
}

TEST(SafeMath, CheckedOpsThrowInsteadOfWrapping) {
  const std::int64_t big = std::numeric_limits<std::int64_t>::max();
  const std::int64_t small = std::numeric_limits<std::int64_t>::min();
  EXPECT_THROW((void)checked_add(big, 1), invariant_error);
  EXPECT_THROW((void)checked_sub(small, 1), invariant_error);
  EXPECT_THROW((void)checked_mul(big / 2 + 1, 2), invariant_error);
  EXPECT_THROW((void)checked_mul(small, -1), invariant_error);
}

TEST(SafeMath, CheckedLcmOverflowThrows) {
  // gcd(2^62, 3) = 1, so the lcm is 3·2^62 > INT64_MAX.
  EXPECT_THROW((void)checked_lcm(std::int64_t{1} << 62, 3), invariant_error);
  EXPECT_THROW((void)checked_lcm(3, std::int64_t{1} << 62), invariant_error);
  // Equal operands never multiply, so no overflow however large.
  EXPECT_EQ(checked_lcm(std::int64_t{1} << 62, std::int64_t{1} << 62),
            std::int64_t{1} << 62);
  EXPECT_THROW((void)checked_lcm(0, 3), precondition_error);
}

TEST(SafeMath, LcmOverflowRegression) {
  // util::lcm used to call std::lcm, which silently wraps; it must now
  // throw on operands whose lcm exceeds INT64_MAX.
  EXPECT_THROW((void)lcm(std::int64_t{1} << 62, 3), invariant_error);
  // Coprime Mersenne pair just below the limit: 2^31 · (2^31 − 1) fits.
  const std::int64_t p = std::int64_t{1} << 31;
  EXPECT_EQ(lcm(p, p - 1), p * (p - 1));
}

TEST(Math, WeibullMeanFactorKnownValues) {
  // Γ(2) = 1 for β = 1 (exponential distribution).
  EXPECT_NEAR(weibull_mean_factor(1.0), 1.0, 1e-12);
  // Γ(1.5) = √π/2 for β = 2 (Rayleigh).
  EXPECT_NEAR(weibull_mean_factor(2.0), std::sqrt(M_PI) / 2.0, 1e-12);
  // β = 3.4 (JEDEC): Γ(1 + 1/3.4) ≈ 0.89843.
  EXPECT_NEAR(weibull_mean_factor(3.4), std::tgamma(1.0 + 1.0 / 3.4), 0.0);
  EXPECT_THROW((void)weibull_mean_factor(0.0), precondition_error);
}

TEST(Math, PowerSumRootMatchesDirectComputation) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  const double p = 3.4;
  double direct = 0.0;
  for (double x : v) direct += std::pow(x, p);
  direct = std::pow(direct, 1.0 / p);
  EXPECT_NEAR(power_sum_root(v, p), direct, 1e-9);
}

TEST(Math, PowerSumRootIsScaleHomogeneous) {
  const std::vector<double> v{0.5, 7.0, 2.25, 0.0};
  std::vector<double> scaled;
  for (double x : v) scaled.push_back(x * 1e6);
  EXPECT_NEAR(power_sum_root(scaled, 3.4), 1e6 * power_sum_root(v, 3.4),
              1e-3);
}

TEST(Math, PowerSumRootAllZeros) {
  EXPECT_EQ(power_sum_root({0.0, 0.0}, 2.0), 0.0);
}

TEST(Math, PowerSumRootRejectsNegative) {
  EXPECT_THROW((void)power_sum_root({1.0, -1.0}, 2.0), precondition_error);
}

TEST(Math, PowerSumRootDominatedByMax) {
  // The p-norm is at least the max and at most max·n^{1/p}.
  const std::vector<double> v{3.0, 1.0, 2.0, 9.0};
  const double r = power_sum_root(v, 3.4);
  EXPECT_GE(r, 9.0);
  EXPECT_LE(r, 9.0 * std::pow(4.0, 1.0 / 3.4) + 1e-9);
}

// ---------------------------------------------------------------- stats ----

TEST(Stats, RunningStatsMatchesDirect) {
  const std::vector<double> xs{3.0, 1.5, 4.0, 1.0, 5.5, 9.0, 2.5};
  RunningStats rs;
  for (double x : xs) rs.add(x);
  const double mean =
      std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size());
  EXPECT_EQ(rs.count(), static_cast<std::int64_t>(xs.size()));
  EXPECT_NEAR(rs.mean(), mean, 1e-12);
  EXPECT_NEAR(rs.variance(), var, 1e-12);
  EXPECT_NEAR(rs.stddev(), std::sqrt(var), 1e-12);
  EXPECT_EQ(rs.min(), 1.0);
  EXPECT_EQ(rs.max(), 9.0);
}

TEST(Stats, EmptyStatsThrow) {
  RunningStats rs;
  EXPECT_THROW((void)rs.mean(), precondition_error);
  EXPECT_THROW((void)rs.min(), precondition_error);
  EXPECT_THROW((void)rs.max(), precondition_error);
  EXPECT_EQ(rs.variance(), 0.0);
}

TEST(Stats, SummarizeAndGeomean) {
  const Summary s = summarize({2.0, 8.0});
  EXPECT_EQ(s.min, 2.0);
  EXPECT_EQ(s.max, 8.0);
  EXPECT_EQ(s.mean, 5.0);
  EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_THROW((void)summarize({}), precondition_error);
  EXPECT_THROW((void)geomean({1.0, 0.0}), precondition_error);
}

// ----------------------------------------------------------------- grid ----

TEST(Grid, IndexingIsColumnRow) {
  Grid<int> g(3, 2, 0);
  g.at(2, 1) = 7;
  EXPECT_EQ(g(2, 1), 7);
  // Row-major backing store: row 1 starts at index 3.
  EXPECT_EQ(g.cells()[1 * 3 + 2], 7);
}

TEST(Grid, BoundsCheckedAccessorThrows) {
  Grid<int> g(3, 2);
  EXPECT_THROW(g.at(3, 0), precondition_error);
  EXPECT_THROW(g.at(0, 2), precondition_error);
}

TEST(Grid, FillAndEquality) {
  Grid<int> a(4, 4, 1);
  Grid<int> b(4, 4, 1);
  EXPECT_TRUE(a == b);
  b.at(0, 0) = 2;
  EXPECT_FALSE(a == b);
  b.fill(1);
  EXPECT_TRUE(a == b);
}

TEST(Grid, RejectsEmptyDimensions) {
  EXPECT_THROW(Grid<int>(0, 3), precondition_error);
  EXPECT_THROW(Grid<int>(3, 0), precondition_error);
}

// ---------------------------------------------------------------- table ----

TEST(Table, AlignsColumnsAndCountsRows) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  EXPECT_EQ(t.rows(), 2u);
  const std::string s = t.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), precondition_error);
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(2.0, 0), "2");
  EXPECT_EQ(fmt_pct(0.558), "55.8%");
  EXPECT_EQ(fmt_pct(1.0, 0), "100%");
}

// ------------------------------------------------------------------ csv ----

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WritesHeaderAndRows) {
  std::ostringstream os;
  CsvWriter w(os, {"x", "y"});
  w.row({"1", "2"});
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
  EXPECT_THROW(w.row({"too", "many", "cells"}), precondition_error);
}

TEST(Csv, FailedStreamRaisesIoErrorInsteadOfTruncating) {
  std::ostringstream os;
  os.setstate(std::ios::failbit);
  EXPECT_THROW(CsvWriter(os, {"x"}), io_error);
}

TEST(Csv, IoErrorNamesTheSink) {
  std::ostringstream os;
  CsvWriter w(os, {"x"}, "results.csv");
  os.setstate(std::ios::badbit);
  try {
    w.row({"1"});
    FAIL() << "should have thrown";
  } catch (const io_error& e) {
    EXPECT_NE(std::string(e.what()).find("results.csv"), std::string::npos);
  }
}

// ------------------------------------------------------------------- io ----

TEST(Io, WriteTextFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "rota_util_io.txt";
  write_text_file(path, "hello\nworld\n");
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), "hello\nworld\n");
  std::remove(path.c_str());
}

TEST(Io, WriteTextFileThrowsNamingUnwritablePath) {
  const std::string path = "/nonexistent-dir/out.txt";
  try {
    write_text_file(path, "x");
    FAIL() << "should have thrown";
  } catch (const io_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
}

// -------------------------------------------------------------- heatmap ----

TEST(Heatmap, AsciiHasOneLinePerRowPlusScale) {
  Grid<double> g(4, 3, 0.0);
  g.at(0, 0) = 10.0;
  const std::string s = ascii_heatmap(g);
  const auto lines = std::count(s.begin(), s.end(), '\n');
  EXPECT_EQ(lines, 4);  // 3 rows + scale line
  // Max-valued cell renders as '@'; it is at the lower-left, so it appears
  // at the start of the *last* row line (row 0 printed last).
  EXPECT_NE(s.find('@'), std::string::npos);
}

TEST(Heatmap, AllZeroGridRendersBlanks) {
  Grid<double> g(2, 2, 0.0);
  const std::string s = ascii_heatmap(g);
  // Both row lines (everything before the scale line) must be blank.
  const std::size_t scale_pos = s.find("scale:");
  ASSERT_NE(scale_pos, std::string::npos);
  const std::string rows = s.substr(0, scale_pos);
  EXPECT_EQ(rows.find_first_not_of(" \n"), std::string::npos);
}

TEST(Heatmap, PgmRoundTripHeader) {
  Grid<double> g(5, 4, 0.0);
  g.at(4, 3) = 2.0;
  const std::string path = ::testing::TempDir() + "/rota_heatmap_test.pgm";
  ASSERT_TRUE(write_pgm(g, path));
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string magic;
  int w = 0;
  int h = 0;
  int maxval = 0;
  in >> magic >> w >> h >> maxval;
  EXPECT_EQ(magic, "P5");
  EXPECT_EQ(w, 5);
  EXPECT_EQ(h, 4);
  EXPECT_EQ(maxval, 255);
  in.get();  // single whitespace after header
  std::vector<unsigned char> px(20);
  in.read(reinterpret_cast<char*>(px.data()), 20);
  ASSERT_TRUE(in.good());
  // Row h-1 is written first; its last pixel is the max (255).
  EXPECT_EQ(px[4], 255);
  std::remove(path.c_str());
}

TEST(Heatmap, DeviationScaleRevealsResidualStructure) {
  // A nearly-level grid renders all-'@' on the absolute scale but shows
  // its min/max structure on the deviation scale.
  Grid<std::int64_t> g(3, 2, 1000000);
  g.at(0, 0) = 1000001;  // +1 residual peak
  const std::string abs = ascii_heatmap(g);
  const std::string dev = ascii_heatmap_deviation(g);
  // Absolute: every cell saturates.
  EXPECT_EQ(std::count(abs.begin(), abs.end(), '@'),
            6 + 1);  // 6 cells + the scale line's '@'
  // Deviation: exactly the peak saturates.
  EXPECT_EQ(std::count(dev.begin(), dev.end(), '@'), 1 + 1);
  EXPECT_NE(dev.find("min(1000000)"), std::string::npos);
}

TEST(Heatmap, DeviationOfConstantGridIsMidShade) {
  Grid<std::int64_t> g(2, 2, 7);
  const std::string dev = ascii_heatmap_deviation(g);
  // No cell saturates: the only '@' sits inside the trailing scale line.
  EXPECT_GT(dev.find('@'), dev.find("scale:"));
  EXPECT_NE(dev.find('='), std::string::npos);  // mid shade used
}

TEST(Heatmap, IntegerOverloadMatchesDoubleRendering) {
  Grid<std::int64_t> gi(3, 3, 0);
  Grid<double> gd(3, 3, 0.0);
  gi.at(1, 1) = 5;
  gd.at(1, 1) = 5.0;
  EXPECT_EQ(ascii_heatmap(gi), ascii_heatmap(gd));
}

// ------------------------------------------------------------------ rng ----

TEST(Rng, DeterministicPerSeed) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  int differing = 0;
  for (int i = 0; i < 16; ++i)
    if (a.next() != b.next()) ++differing;
  EXPECT_GT(differing, 12);
}

TEST(Rng, BoundedValuesInRange) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(14), 14u);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BoundedValuesRoughlyUniform) {
  SplitMix64 rng(11);
  std::vector<int> counts(12, 0);
  constexpr int kDraws = 60000;
  for (int i = 0; i < kDraws; ++i)
    ++counts[rng.next_below(12)];
  for (int c : counts) {
    EXPECT_GT(c, kDraws / 12 - kDraws / 60);  // within 20% of uniform
    EXPECT_LT(c, kDraws / 12 + kDraws / 60);
  }
}

}  // namespace
}  // namespace rota::util
