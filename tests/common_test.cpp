// Unit tests for the common utilities: units, RNG, time series, CSV, table.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <type_traits>

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

TEST(Units, MinutesSeconds) {
  EXPECT_DOUBLE_EQ(units::minutes_to_seconds(15.0), 900.0);
  EXPECT_DOUBLE_EQ(units::seconds_to_minutes(900.0), 15.0);
}

TEST(Units, Literals) {
  using namespace units::literals;
  EXPECT_DOUBLE_EQ(3.2_kW, 3200.0);
  EXPECT_DOUBLE_EQ(400_Wh, 400.0);
  EXPECT_DOUBLE_EQ(15_min, 900.0);
  EXPECT_DOUBLE_EQ(2.5_s, 2.5);
}

TEST(Units, KwConversions) {
  EXPECT_DOUBLE_EQ(units::kw_to_w(4.8), 4800.0);
  EXPECT_DOUBLE_EQ(units::w_to_kw(3200.0), 3.2);
}

TEST(Units, QuantityArithmeticStaysInUnit) {
  using units::Watts;
  constexpr Watts a{150.0};
  constexpr Watts b{50.0};
  EXPECT_DOUBLE_EQ((a + b).value(), 200.0);
  EXPECT_DOUBLE_EQ((a - b).value(), 100.0);
  EXPECT_DOUBLE_EQ((a * 2.0).value(), 300.0);
  EXPECT_DOUBLE_EQ((a / 2.0).value(), 75.0);
  // Same-unit ratio is dimensionless.
  EXPECT_DOUBLE_EQ(a / b, 3.0);
  static_assert(std::is_same_v<decltype(a / b), double>);
}

TEST(Units, QuantityComparison) {
  using units::Seconds;
  EXPECT_LT(Seconds{1.0}, Seconds{2.0});
  EXPECT_EQ(Seconds{2.0}, Seconds{2.0});
  EXPECT_GE(Seconds{3.0}, Seconds{2.0});
}

TEST(Units, EnergyFromPowerAndDuration) {
  // 250 W for a 15-minute sprint window.
  const units::Joules e =
      units::energy(units::Watts{250.0}, units::Seconds{900.0});
  EXPECT_DOUBLE_EQ(e.value(), 225000.0);
}

TEST(Units, StrongTypedWhJouleRoundTrip) {
  const units::Joules j = units::to_joules(units::WattHours{1.0});
  EXPECT_DOUBLE_EQ(j.value(), 3600.0);
  const units::WattHours back =
      units::to_watt_hours(units::to_joules(units::WattHours{123.45}));
  EXPECT_DOUBLE_EQ(back.value(), 123.45);
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

TEST(Rng, ExponentialMean) {
  Rng rng(29);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
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

TEST(Csv, WriterEmitsHeaderAndRows) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.header({"t", "v"});
  csv.row({0.0, 1.5});
  csv.row({1.0, 2.5});
  EXPECT_EQ(os.str(), "t,v\n0,1.5\n1,2.5\n");
}

TEST(Csv, RowWidthMismatchThrows) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.header({"a", "b"});
  EXPECT_THROW(csv.row({1.0}), InvalidArgumentError);
}

TEST(Csv, RowBeforeHeaderThrows) {
  std::ostringstream os;
  CsvWriter csv(os);
  EXPECT_THROW(csv.row({1.0}), InvalidArgumentError);
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
