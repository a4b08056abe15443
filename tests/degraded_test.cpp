// End-to-end tests of SprintCon's degraded modes (Section IV-C): the
// safety monitor must catch breaker-near-trip and battery-low events and
// the controller must reshape the sprint accordingly.
#include <gtest/gtest.h>

#include "scenario/rig.hpp"

namespace sprintcon::scenario {
namespace {

RigConfig small_rig() {
  RigConfig cfg;
  cfg.num_servers = 4;
  cfg.sprint.cb_rated_w = 4.0 * 300.0 * (2.0 / 3.0);  // 800 W
  cfg.ups_capacity_wh = 100.0;
  return cfg;
}

TEST(Degraded, TinyBatteryTriggersUpsConserve) {
  RigConfig cfg = small_rig();
  // A UPS provisioned for mere seconds: the recovery-phase discharge
  // drains it quickly, forcing conservation mode.
  cfg.ups_capacity_wh = 4.0;
  Rig rig(cfg);
  rig.run();

  EXPECT_TRUE(rig.sprintcon()->state() == core::SprintState::kUpsConserve ||
              rig.sprintcon()->state() == core::SprintState::kEnded)
      << "state: " << core::to_string(rig.sprintcon()->state());
  // No blackout: the caps kept the rack alive on CB power alone.
  EXPECT_LT(rig.summary().outage_start_s, 0.0);
  EXPECT_EQ(rig.summary().cb_trips, 0);
}

TEST(Degraded, ConserveModeCapsTotalPowerToCb) {
  RigConfig cfg = small_rig();
  cfg.ups_capacity_wh = 4.0;
  Rig rig(cfg);
  rig.run();
  ASSERT_NE(rig.sprintcon()->state(), core::SprintState::kSprinting);
  // Once conservation engaged, total power must settle at/below the CB
  // budget (the bidding caps all workloads). Check the final stretch.
  const auto& total = rig.recorder().series("total_power_w");
  const auto& budget = rig.recorder().series("cb_budget_w");
  const std::size_t n = total.size();
  double above = 0.0;
  for (std::size_t i = n - 120; i < n; ++i) {
    above = std::max(above, total[i] - budget[i]);
  }
  EXPECT_LT(above, 60.0);  // within actuation noise of the cap
}

TEST(Degraded, ConserveModeThrottlesInteractive) {
  RigConfig cfg = small_rig();
  cfg.ups_capacity_wh = 4.0;
  Rig rig(cfg);
  rig.run();
  // With the budget inadequate, the bidding must have capped interactive
  // cores below peak at least part of the time.
  EXPECT_LT(rig.summary().avg_freq_interactive, 0.999);
}

TEST(Degraded, OverlongOverloadWindowTriggersCbProtect) {
  RigConfig cfg = small_rig();
  // Schedule a 200 s overload window: the trip point at 1.25x is ~170 s,
  // so without the safety monitor the breaker WOULD trip. The monitor
  // must stop overloading near the threshold instead.
  cfg.sprint.cb_overload_duration_s = 200.0;
  cfg.sprint.cb_recovery_duration_s = 250.0;
  Rig rig(cfg);
  rig.run();
  EXPECT_EQ(rig.summary().cb_trips, 0);
  // The thermal stress got close to (but never past) the trip threshold.
  const double max_stress =
      rig.recorder().series("cb_thermal_stress").max();
  EXPECT_GT(max_stress, 0.9);
  EXPECT_LT(max_stress, 1.0);
}

TEST(Degraded, CbProtectKeepsServingLoad) {
  RigConfig cfg = small_rig();
  cfg.sprint.cb_overload_duration_s = 200.0;
  cfg.sprint.cb_recovery_duration_s = 250.0;
  Rig rig(cfg);
  rig.run();
  // Power was never unserved and the rack stayed up.
  EXPECT_LT(rig.summary().outage_start_s, 0.0);
  EXPECT_NEAR(rig.recorder().series("unserved_w").max(), 0.0, 1.0);
}

TEST(Degraded, BothEventsEndTheSprintSafely) {
  RigConfig cfg = small_rig();
  cfg.sprint.cb_overload_duration_s = 200.0;
  cfg.sprint.cb_recovery_duration_s = 250.0;
  cfg.ups_capacity_wh = 3.0;
  Rig rig(cfg);
  rig.run();
  // Whatever the exact trajectory, ending the sprint must be safe:
  EXPECT_EQ(rig.summary().cb_trips, 0);
  EXPECT_LT(rig.summary().outage_start_s, 0.0);
  // And with both stressors the sprint cannot still be nominal.
  EXPECT_NE(rig.sprintcon()->state(), core::SprintState::kSprinting);
}

TEST(Degraded, HealthyRigStaysNominalForReference) {
  Rig rig(small_rig());
  rig.run();
  EXPECT_EQ(rig.sprintcon()->state(), core::SprintState::kSprinting);
}

// --- fault-injected degraded paths -----------------------------------------
// The scripted fault layer reaches degraded states the config alone can
// only approximate: these runs force the exact both-degraded "end sprint"
// transition and the bidding fallback, deterministically.

TEST(Degraded, InjectedFadeAndDriftEndTheSprint) {
  RigConfig cfg = small_rig();
  // An overlong overload window against an aged breaker engages
  // CB-protect mid-window; fading the UPS to 2 Wh shortly after drains it
  // below reserve while protect is still held — both monitors latched =
  // the sprint ends (Section IV-C), and ending must be safe.
  cfg.sprint.cb_overload_duration_s = 200.0;
  cfg.sprint.cb_recovery_duration_s = 250.0;
  cfg.faults.faults = {
      fault::FaultSpec::parse_line("cb_drift start=0 magnitude=0.9"),
      fault::FaultSpec::parse_line(
          "ups_fade start=150 duration=1 magnitude=0.02")};
  Rig rig(cfg);
  rig.run();
  EXPECT_EQ(rig.sprintcon()->state(), core::SprintState::kEnded);
  EXPECT_EQ(rig.summary().cb_trips, 0);
  EXPECT_LT(rig.summary().outage_start_s, 0.0);
  // Ended caps everything under the rated CB for the rest of the run.
  const auto& total = rig.recorder().series("total_power_w");
  double above = 0.0;
  for (std::size_t i = total.size() - 120; i < total.size(); ++i) {
    above = std::max(above, total[i] - cfg.sprint.cb_rated_w);
  }
  EXPECT_LT(above, 60.0);
}

TEST(Degraded, InjectedUpsExhaustionForcesBiddingFallback) {
  RigConfig cfg = small_rig();
  // Fade the store to 1 Wh mid-sprint: the next discharge empties it,
  // conservation engages, and the classes must bid for the rated budget —
  // visibly throttling interactive cores below peak.
  cfg.faults.faults = {fault::FaultSpec::parse_line(
      "ups_fade start=100 duration=1 magnitude=0.01")};
  Rig rig(cfg);
  rig.run();
  EXPECT_TRUE(rig.sprintcon()->state() == core::SprintState::kUpsConserve ||
              rig.sprintcon()->state() == core::SprintState::kEnded)
      << "state: " << core::to_string(rig.sprintcon()->state());
  EXPECT_EQ(rig.summary().cb_trips, 0);
  EXPECT_LT(rig.summary().outage_start_s, 0.0);
  const auto& fi = rig.recorder().series("freq_interactive");
  double min_after = 1.0;
  for (std::size_t i = 150; i < fi.size(); ++i) {
    min_after = std::min(min_after, fi[i]);
  }
  EXPECT_LT(min_after, 0.999)
      << "bidding never capped the interactive class";
}

TEST(Degraded, DischargeFaultFallsBackToWorkloadDefense) {
  RigConfig cfg = small_rig();
  // A dead discharge circuit under an overlong overload window: the UPS
  // cannot absorb the excess, so the cb-protect + still-overloaded
  // fallback must bid ALL workloads under P_cb to save the breaker.
  cfg.sprint.cb_overload_duration_s = 200.0;
  cfg.sprint.cb_recovery_duration_s = 250.0;
  cfg.faults.faults = {fault::FaultSpec::parse_line(
      "discharge_fail start=0 duration=900 magnitude=0")};
  Rig rig(cfg);
  rig.run();
  EXPECT_EQ(rig.summary().cb_trips, 0);
  EXPECT_LT(rig.summary().outage_start_s, 0.0);
  // The breaker got stressed (the fault bit) ...
  EXPECT_GT(rig.recorder().series("cb_thermal_stress").max(), 0.9);
  // ... and the defense was the workloads, not the (dead) UPS.
  double min_fi = 1.0;
  const auto& fi = rig.recorder().series("freq_interactive");
  for (std::size_t i = 0; i < fi.size(); ++i) {
    min_fi = std::min(min_fi, fi[i]);
  }
  EXPECT_LT(min_fi, 0.999)
      << "workload bidding fallback never engaged";
  EXPECT_NEAR(rig.recorder().series("ups_power_w").max(), 0.0, 1e-9);
}

}  // namespace
}  // namespace sprintcon::scenario
