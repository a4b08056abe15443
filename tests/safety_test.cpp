// Tests for the sprint safety state machine (Section IV-C).
#include "common/error.hpp"
#include <gtest/gtest.h>

#include <vector>

#include "core/safety.hpp"
#include "obs/sink.hpp"
#include "power/battery.hpp"

namespace sprintcon::core {
namespace {

power::CircuitBreaker cool_breaker() {
  return power::CircuitBreaker(3200.0, power::TripCurve::bulletin_1489a());
}

power::CircuitBreaker hot_breaker() {
  power::CircuitBreaker cb = cool_breaker();
  // Drive stress above the near-trip margin without tripping.
  while (cb.thermal_stress() < 0.95) cb.deliver(4000.0, 1.0);
  return cb;
}

power::UpsBattery full_battery() { return power::UpsBattery(400.0, 4800.0); }

power::UpsBattery low_battery() {
  power::UpsBattery b = full_battery();
  b.discharge(4800.0, 290.0);  // drain most of it
  return b;
}

TEST(Safety, NominalStateIsSprinting) {
  SafetyMonitor monitor;
  auto cb = cool_breaker();
  auto battery = full_battery();
  EXPECT_EQ(monitor.update(cb, battery), SprintState::kSprinting);
  EXPECT_FALSE(monitor.cb_protect());
  EXPECT_FALSE(monitor.ups_conserve());
}

TEST(Safety, NearTripEntersCbProtect) {
  SafetyMonitor monitor;
  auto cb = hot_breaker();
  auto battery = full_battery();
  EXPECT_EQ(monitor.update(cb, battery), SprintState::kCbProtect);
  EXPECT_TRUE(monitor.cb_protect());
}

TEST(Safety, CbProtectRearmsAfterCooling) {
  SafetyMonitor monitor;
  auto cb = hot_breaker();
  auto battery = full_battery();
  monitor.update(cb, battery);
  ASSERT_TRUE(monitor.cb_protect());
  // Cool the breaker below the re-arm threshold.
  while (cb.thermal_stress() >= 0.29) cb.deliver(1000.0, 1.0);
  EXPECT_EQ(monitor.update(cb, battery), SprintState::kSprinting);
  EXPECT_FALSE(monitor.cb_protect());
}

TEST(Safety, CbProtectStaysEngagedWhileWarm) {
  SafetyMonitor monitor;
  auto cb = hot_breaker();
  auto battery = full_battery();
  monitor.update(cb, battery);
  // Slight cooling, still above the re-arm threshold: flag holds.
  cb.deliver(1000.0, 5.0);
  EXPECT_EQ(monitor.update(cb, battery), SprintState::kCbProtect);
}

TEST(Safety, LowBatteryEntersConserveAndSticks) {
  SafetyMonitor monitor;
  auto cb = cool_breaker();
  auto battery = low_battery();
  EXPECT_EQ(monitor.update(cb, battery), SprintState::kUpsConserve);
  // Conservation is sticky even if SOC would read higher later.
  auto fresh = full_battery();
  EXPECT_EQ(monitor.update(cb, fresh), SprintState::kUpsConserve);
}

TEST(Safety, BothEventsEndTheSprint) {
  SafetyMonitor monitor;
  auto cb = hot_breaker();
  auto battery = low_battery();
  EXPECT_EQ(monitor.update(cb, battery), SprintState::kEnded);
  // Ended is terminal.
  auto cool = cool_breaker();
  auto fresh = full_battery();
  EXPECT_EQ(monitor.update(cool, fresh), SprintState::kEnded);
}

TEST(Safety, OpenBreakerCountsAsCbEvent) {
  SafetyMonitor monitor;
  auto cb = cool_breaker();
  while (!cb.open()) cb.deliver(6000.0, 1.0);
  auto battery = full_battery();
  EXPECT_EQ(monitor.update(cb, battery), SprintState::kCbProtect);
}

TEST(Safety, StateNames) {
  EXPECT_STREQ(to_string(SprintState::kSprinting), "sprinting");
  EXPECT_STREQ(to_string(SprintState::kCbProtect), "cb-protect");
  EXPECT_STREQ(to_string(SprintState::kUpsConserve), "ups-conserve");
  EXPECT_STREQ(to_string(SprintState::kEnded), "ended");
}

// --- structured transition events ------------------------------------------

/// Events of type kSprintStateChange matching a (from, to) pair.
std::vector<obs::Event> transitions(const obs::ObsSink& sink, SprintState from,
                                    SprintState to) {
  std::vector<obs::Event> out;
  for (const obs::Event& e : sink.events().snapshot()) {
    if (e.type == obs::EventType::kSprintStateChange &&
        e.field("from", -1.0) == static_cast<double>(from) &&
        e.field("to", -1.0) == static_cast<double>(to)) {
      out.push_back(e);
    }
  }
  return out;
}

TEST(SafetyEvents, EveryLegalTransitionEmitsExactlyOnce) {
  // Chain A drives: sprinting -> cb-protect -> sprinting -> ups-conserve
  // -> ended. Each leg must appear exactly once with the right cause.
  obs::ObsSink sink;
  SafetyMonitor monitor;
  monitor.set_obs(&sink);
  auto battery = full_battery();

  auto hot = hot_breaker();
  EXPECT_EQ(monitor.update(hot, battery, 1.0), SprintState::kCbProtect);
  // Repeated same-state updates add nothing.
  monitor.update(hot, battery, 2.0);
  monitor.update(hot, battery, 3.0);

  auto cool = hot;
  while (cool.thermal_stress() >= 0.29) cool.deliver(1000.0, 1.0);
  EXPECT_EQ(monitor.update(cool, battery, 4.0), SprintState::kSprinting);

  auto low = low_battery();
  EXPECT_EQ(monitor.update(cool, low, 5.0), SprintState::kUpsConserve);
  monitor.update(cool, low, 6.0);

  auto hot2 = hot_breaker();
  EXPECT_EQ(monitor.update(hot2, low, 7.0), SprintState::kEnded);
  // Terminal: further updates never emit again.
  monitor.update(hot2, low, 8.0);
  monitor.update(cool, battery, 9.0);

  const auto all = sink.events().snapshot();
  EXPECT_EQ(all.size(), 4u);
  EXPECT_EQ(sink.metrics().snapshot().counter("safety.transitions"), 4u);

  const auto to_protect = transitions(sink, SprintState::kSprinting,
                                      SprintState::kCbProtect);
  ASSERT_EQ(to_protect.size(), 1u);
  EXPECT_STREQ(to_protect[0].cause, "cb-near-trip");
  EXPECT_DOUBLE_EQ(to_protect[0].t_s, 1.0);
  EXPECT_GE(to_protect[0].field("stress"), 0.9);

  const auto rearm = transitions(sink, SprintState::kCbProtect,
                                 SprintState::kSprinting);
  ASSERT_EQ(rearm.size(), 1u);
  EXPECT_STREQ(rearm[0].cause, "cb-cooled");

  const auto conserve = transitions(sink, SprintState::kSprinting,
                                    SprintState::kUpsConserve);
  ASSERT_EQ(conserve.size(), 1u);
  EXPECT_STREQ(conserve[0].cause, "battery-low");
  EXPECT_LT(conserve[0].field("soc", 1.0), 0.2);

  const auto ended = transitions(sink, SprintState::kUpsConserve,
                                 SprintState::kEnded);
  ASSERT_EQ(ended.size(), 1u);
  EXPECT_STREQ(ended[0].cause, "cb-near-trip");
}

TEST(SafetyEvents, EndFromCbProtectBlamesBattery) {
  obs::ObsSink sink;
  SafetyMonitor monitor;
  monitor.set_obs(&sink);
  auto hot = hot_breaker();
  auto battery = full_battery();
  monitor.update(hot, battery, 1.0);
  auto low = low_battery();
  EXPECT_EQ(monitor.update(hot, low, 2.0), SprintState::kEnded);

  const auto ended =
      transitions(sink, SprintState::kCbProtect, SprintState::kEnded);
  ASSERT_EQ(ended.size(), 1u);
  EXPECT_STREQ(ended[0].cause, "battery-low");
}

TEST(SafetyEvents, DirectEndBlamesBoth) {
  obs::ObsSink sink;
  SafetyMonitor monitor;
  monitor.set_obs(&sink);
  auto hot = hot_breaker();
  auto low = low_battery();
  EXPECT_EQ(monitor.update(hot, low, 0.5), SprintState::kEnded);

  const auto ended =
      transitions(sink, SprintState::kSprinting, SprintState::kEnded);
  ASSERT_EQ(ended.size(), 1u);
  EXPECT_STREQ(ended[0].cause, "cb-and-battery");
  EXPECT_EQ(sink.events().snapshot().size(), 1u);
}

TEST(SafetyEvents, NoSinkMeansNoEvents) {
  SafetyMonitor monitor;
  auto hot = hot_breaker();
  auto battery = full_battery();
  // Must not crash without a sink attached.
  EXPECT_EQ(monitor.update(hot, battery, 1.0), SprintState::kCbProtect);
}

}  // namespace
}  // namespace sprintcon::core
