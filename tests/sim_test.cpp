// Tests for the simulation engine: clock, recorder, bound tick.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sim/simulation.hpp"

namespace sprintcon::sim {
namespace {

/// A one-stage owner: counts its ticks and records the count.
struct Counter {
  Simulation* sim = nullptr;
  int steps = 0;
  double last_time = -1.0;

  static void tick(void* self) {
    auto& c = *static_cast<Counter*>(self);
    ++c.steps;
    c.last_time = c.sim->clock().now_s();
    c.sim->clock().advance();
    c.sim->recorder().sample();
  }
  static void fill(const void* self, double* row) {
    row[0] = static_cast<double>(static_cast<const Counter*>(self)->steps);
  }
};

/// Writes row[i] = i for every channel of a recorder with `n` channels.
template <int n>
void fill_index(const void*, double* row) {
  for (int i = 0; i < n; ++i) row[i] = static_cast<double>(i);
}

TEST(Clock, AdvancesByDt) {
  SimClock clock(0.5);
  EXPECT_DOUBLE_EQ(clock.now_s(), 0.0);
  clock.advance();
  clock.advance();
  EXPECT_DOUBLE_EQ(clock.now_s(), 1.0);
  EXPECT_EQ(clock.tick(), 2u);
}

TEST(Clock, InvalidDtThrows) {
  EXPECT_THROW(SimClock(0.0), sprintcon::InvalidArgumentError);
}

TEST(Clock, EveryFiresOnPeriodMultiples) {
  SimClock clock(1.0);
  int fires = 0;
  for (int i = 0; i < 10; ++i) {
    if (clock.every(3.0)) ++fires;
    clock.advance();
  }
  EXPECT_EQ(fires, 4);  // ticks 0, 3, 6, 9
}

TEST(Clock, EverySubTickPeriodFiresEveryTick) {
  SimClock clock(1.0);
  EXPECT_TRUE(clock.every(0.1));
  clock.advance();
  EXPECT_TRUE(clock.every(0.1));
}

TEST(Simulation, RecorderSamplesEachTick) {
  Counter c;
  Simulation sim(1.0, &c, &Counter::tick);
  c.sim = &sim;
  sim.recorder().set_channels({"steps"}, &c, &Counter::fill);
  sim.run_until(4.0);
  EXPECT_EQ(c.steps, 4);
  // The bound tick sees the pre-advance time of each tick.
  EXPECT_DOUBLE_EQ(c.last_time, 3.0);
  const auto& ts = sim.recorder().series("steps");
  ASSERT_EQ(ts.size(), 4u);
  EXPECT_DOUBLE_EQ(ts[0], 1.0);
  EXPECT_DOUBLE_EQ(ts[3], 4.0);
}

TEST(Simulation, RunBackwardsThrows) {
  Counter c;
  Simulation sim(1.0, &c, &Counter::tick);
  c.sim = &sim;
  sim.run_until(2.0);
  EXPECT_EQ(c.steps, 2);
  EXPECT_THROW(sim.run_until(1.0), sprintcon::InvalidArgumentError);
}

TEST(Simulation, TickNeedsOwnerAndFunction) {
  Counter c;
  EXPECT_THROW(Simulation(1.0, nullptr, &Counter::tick),
               sprintcon::InvalidArgumentError);
  EXPECT_THROW(Simulation(1.0, &c, nullptr), sprintcon::InvalidArgumentError);
}

TEST(Recorder, DuplicateProbeNameThrows) {
  TraceRecorder rec(1.0);
  EXPECT_THROW(rec.set_channels({"x", "y", "x"}, nullptr, &fill_index<3>),
               sprintcon::InvalidArgumentError);
  // The channel list is declared once.
  TraceRecorder once(1.0);
  once.set_channels({"x"}, nullptr, &fill_index<1>);
  EXPECT_THROW(once.set_channels({"y"}, nullptr, &fill_index<1>),
               sprintcon::InvalidArgumentError);
}

TEST(Recorder, UnknownChannelThrows) {
  TraceRecorder rec(1.0);
  EXPECT_THROW(rec.series("nope"), sprintcon::InvalidArgumentError);
}

TEST(Recorder, ChannelEnumeration) {
  TraceRecorder rec(1.0);
  rec.set_channels({"a", "b"}, nullptr, &fill_index<2>);
  EXPECT_TRUE(rec.has("a"));
  EXPECT_FALSE(rec.has("c"));
  EXPECT_EQ(rec.channel_names(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rec.all_series().size(), 2u);
}

TEST(Recorder, IndexedLookupSurvivesManyProbes) {
  // The name -> index map must keep every channel addressable (and keep
  // throwing on unknown names) well past the handful a rig declares.
  TraceRecorder rec(1.0);
  constexpr int kProbes = 200;
  std::vector<std::string> names;
  for (int i = 0; i < kProbes; ++i) {
    names.push_back("probe_" + std::to_string(i));
  }
  rec.set_channels(std::move(names), nullptr, &fill_index<kProbes>);
  rec.sample();
  for (int i = 0; i < kProbes; ++i) {
    const std::string name = "probe_" + std::to_string(i);
    ASSERT_TRUE(rec.has(name));
    const TimeSeries& s = rec.series(name);
    EXPECT_EQ(s.name(), name);
    EXPECT_DOUBLE_EQ(s[0], static_cast<double>(i));
  }
  // string_view lookups hit the transparent hash path.
  EXPECT_TRUE(rec.has(std::string_view("probe_42")));
  EXPECT_FALSE(rec.has(std::string_view("probe_200")));
  EXPECT_THROW(rec.series("probe_200"), sprintcon::InvalidArgumentError);
}

}  // namespace
}  // namespace sprintcon::sim
