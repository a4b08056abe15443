// Unit tests for the common utilities: units, RNG, time series, CSV, table.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/time_series.hpp"
#include "common/units.hpp"

namespace sprintcon {
namespace {

// --- units ------------------------------------------------------------------

TEST(Units, WattHourJouleRoundTrip) {
  EXPECT_DOUBLE_EQ(units::wh_to_joules(1.0), 3600.0);
  EXPECT_DOUBLE_EQ(units::joules_to_wh(units::wh_to_joules(123.45)), 123.45);
}

// --- rng ----------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformBoundsRespected) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.5, 7.5);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 7.5);
  }
}

TEST(Rng, UniformMeanApproximatelyHalf) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(19);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalShiftScale) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(31);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(37);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_index(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, SplitStreamsAreIndependentButDeterministic) {
  Rng parent1(41), parent2(41);
  Rng child1 = parent1.split();
  Rng child2 = parent2.split();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(child1(), child2());
  // Child differs from a fresh parent stream.
  Rng parent3(41);
  Rng child3 = parent3.split();
  int same = 0;
  for (int i = 0; i < 50; ++i)
    if (child3() == parent3()) ++same;
  EXPECT_LT(same, 3);
}

// --- time series -----------------------------------------------------------

TEST(TimeSeries, BasicStats) {
  TimeSeries ts("x", 1.0);
  for (double v : {1.0, 2.0, 3.0, 4.0}) ts.push(v);
  EXPECT_DOUBLE_EQ(ts.mean(), 2.5);
  EXPECT_DOUBLE_EQ(ts.min(), 1.0);
  EXPECT_DOUBLE_EQ(ts.max(), 4.0);
  EXPECT_NEAR(ts.stddev(), std::sqrt(1.25), 1e-12);
  EXPECT_DOUBLE_EQ(ts.integral(), 10.0);
}

TEST(TimeSeries, TimeIndexing) {
  TimeSeries ts("x", 0.5, 10.0);
  ts.push(1.0);
  ts.push(2.0);
  ts.push(3.0);
  EXPECT_DOUBLE_EQ(ts.time_at(0), 10.0);
  EXPECT_DOUBLE_EQ(ts.time_at(2), 11.0);
  EXPECT_DOUBLE_EQ(ts.sample_at(10.6), 2.0);
  EXPECT_DOUBLE_EQ(ts.sample_at(0.0), 1.0);    // clamps low
  EXPECT_DOUBLE_EQ(ts.sample_at(100.0), 3.0);  // clamps high
}

TEST(TimeSeries, MeanBetweenWindow) {
  TimeSeries ts("x", 1.0);
  for (int i = 0; i < 10; ++i) ts.push(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(ts.mean_between(2.0, 5.0), 3.0);  // samples 2,3,4
}

TEST(TimeSeries, FirstCrossing) {
  TimeSeries ts("x", 1.0);
  for (double v : {0.0, 0.0, 5.0, 5.0, 5.0}) ts.push(v);
  EXPECT_DOUBLE_EQ(ts.first_time_above(1.0), 2.0);
  EXPECT_LT(ts.first_time_above(10.0), 0.0);
}

TEST(TimeSeries, EmptySeriesThrows) {
  TimeSeries ts("x", 1.0);
  EXPECT_THROW(ts.mean(), InvalidArgumentError);
  EXPECT_THROW(ts.min(), InvalidArgumentError);
  EXPECT_THROW(ts.sample_at(0.0), InvalidArgumentError);
}

TEST(TimeSeries, InvalidDtThrows) {
  EXPECT_THROW(TimeSeries("x", 0.0), InvalidArgumentError);
  EXPECT_THROW(TimeSeries("x", -1.0), InvalidArgumentError);
}

// --- csv ---------------------------------------------------------------------

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, SeriesExportAlignsColumns) {
  TimeSeries a("a", 1.0), b("b", 1.0);
  a.push(1.0);
  a.push(2.0);
  b.push(10.0);  // shorter: pads with last value
  std::ostringstream os;
  write_series_csv(os, {&a, &b});
  EXPECT_EQ(os.str(), "time_s,a,b\n0,1,10\n1,2,10\n");
}

// --- table -------------------------------------------------------------------

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), InvalidArgumentError);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_percent(0.1234, 1), "12.3%");
}

}  // namespace
}  // namespace sprintcon
