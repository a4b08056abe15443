// Tests for inter-sprint recharging and the dedicated-server layout.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "scenario/rig.hpp"

namespace sprintcon::scenario {
namespace {

RigConfig multi_sprint_rig() {
  RigConfig cfg;
  cfg.num_servers = 4;
  cfg.sprint.cb_rated_w = 800.0;
  cfg.ups_capacity_wh = 100.0;
  // 7.5-minute sprint followed by 7.5 minutes of normal operation.
  cfg.sprint.burst_duration_s = 450.0;
  cfg.sprint.long_burst_s = 400.0;  // keep the periodic policy
  cfg.duration_s = 900.0;
  cfg.batch_deadline_s = 420.0;
  cfg.sprint.recharge_power_w = 75.0;
  return cfg;
}

// --- inter-sprint recharge ------------------------------------------------------

TEST(Recharge, BatteryRefillsAfterTheBurst) {
  Rig rig(multi_sprint_rig());
  rig.run();
  const auto& soc = rig.recorder().series("battery_soc");
  const double soc_at_burst_end = soc.sample_at(450.0);
  const double soc_at_end = soc.sample_at(899.0);
  ASSERT_LT(soc_at_burst_end, 1.0);  // the sprint used the battery
  EXPECT_GT(soc_at_end, soc_at_burst_end + 0.02);  // and it refilled
}

TEST(Recharge, ChargingNeverOverloadsTheBreaker) {
  Rig rig(multi_sprint_rig());
  rig.run();
  const auto& cb = rig.recorder().series("cb_power_w");
  // After the burst, CB power incl. charging must stay at/below rated.
  double worst = 0.0;
  for (std::size_t i = 460; i < cb.size(); ++i) {
    worst = std::max(worst, cb[i]);
  }
  // cb_power_w excludes the charge draw; the invariant that matters is no
  // trip and no post-burst overload events.
  EXPECT_EQ(rig.summary().cb_trips, 0);
  EXPECT_LT(worst, rig.config().sprint.cb_rated_w + 1.0);
}

TEST(Recharge, DisabledChargerLeavesTheBatteryDrained) {
  RigConfig cfg = multi_sprint_rig();
  cfg.sprint.recharge_power_w = 0.0;
  Rig rig(cfg);
  rig.run();
  const auto& soc = rig.recorder().series("battery_soc");
  // Without a charger the SOC can only fall (the UPS still covers the
  // residual interactive spikes above the rated cap) — never rise.
  EXPECT_LE(soc.sample_at(899.0), soc.sample_at(455.0) + 1e-9);
  EXPECT_GT(soc.sample_at(899.0), soc.sample_at(455.0) - 0.15);
}

TEST(Recharge, PowerPathHonorsHeadroomOnly) {
  power::PowerPath path(
      power::CircuitBreaker(1000.0, power::TripCurve::bulletin_1489a()),
      power::UpsBattery(50.0, 2000.0),
      power::DischargeCircuit(2000.0, 2000, 1.0));
  path.battery().discharge(3600.0, 10.0);  // 10 Wh out
  // Demand 900 W, recharge command 500 W -> only 100 W of headroom.
  const auto flows = path.step(900.0, 0.0, 1.0, 500.0);
  EXPECT_NEAR(flows.charge_w, 100.0, 1e-9);
  EXPECT_NEAR(flows.cb_w, 900.0, 1e-9);
  EXPECT_DOUBLE_EQ(flows.unserved_w, 0.0);
}

TEST(Recharge, NoChargingWhileDischarging) {
  power::PowerPath path(
      power::CircuitBreaker(1000.0, power::TripCurve::bulletin_1489a()),
      power::UpsBattery(50.0, 2000.0),
      power::DischargeCircuit(2000.0, 2000, 1.0));
  path.battery().discharge(3600.0, 10.0);
  // UPS is commanded to discharge: the charger must stay off.
  const auto flows = path.step(900.0, 200.0, 1.0, 500.0);
  EXPECT_GT(flows.ups_w, 0.0);
  EXPECT_DOUBLE_EQ(flows.charge_w, 0.0);
}

TEST(Recharge, NegativeCommandThrows) {
  power::PowerPath path(
      power::CircuitBreaker(1000.0, power::TripCurve::bulletin_1489a()),
      power::UpsBattery(50.0, 2000.0),
      power::DischargeCircuit(2000.0, 2000, 1.0));
  EXPECT_THROW(path.step(100.0, 0.0, 1.0, -1.0), InvalidArgumentError);
}

// --- dedicated-server layout ------------------------------------------------------

TEST(DedicatedServers, SplitsTheRackByServer) {
  RigConfig cfg = multi_sprint_rig();
  cfg.dedicated_servers = true;
  Rig rig(cfg);
  // First half of the servers: all interactive; second half: all batch.
  const auto& servers = rig.rack().servers();
  const auto batch_count = [](const server::Server& s) {
    return static_cast<std::size_t>(std::count_if(
        s.cores().begin(), s.cores().end(),
        [](const server::CpuCore& c) { return c.is_batch(); }));
  };
  EXPECT_EQ(servers[0].cores().size(), 8u);
  EXPECT_EQ(batch_count(servers[0]), 0u);
  EXPECT_EQ(servers.back().cores().size(), 8u);
  EXPECT_EQ(batch_count(servers.back()), 8u);
  // Same class totals as the colocated default (4 servers x 8 cores).
  EXPECT_EQ(rig.rack().batch_cores().size(), 16u);
}

TEST(DedicatedServers, SprintConWorksUnchanged) {
  // The paper's claim: SprintCon handles both layouts because p_batch is
  // derived from Eq. 6, never metered directly.
  RigConfig cfg = multi_sprint_rig();
  cfg.dedicated_servers = true;
  Rig rig(cfg);
  rig.run();
  const auto s = rig.summary();
  EXPECT_EQ(s.cb_trips, 0);
  EXPECT_LT(s.outage_start_s, 0.0);
  // Interactive pinned at peak for the whole burst (post-burst the rack
  // returns to normal operation and may throttle).
  EXPECT_NEAR(rig.recorder().series("freq_interactive").mean_between(5.0, 445.0),
              1.0, 1e-6);
  EXPECT_TRUE(s.all_deadlines_met);
}

TEST(DedicatedServers, ComparableEfficiencyToColocation) {
  RigConfig cfg = multi_sprint_rig();
  Rig colocated(cfg);
  cfg.dedicated_servers = true;
  Rig dedicated(cfg);
  colocated.run();
  dedicated.run();
  // Same class mix, same budgets: storage demand within a factor of two.
  const double a = colocated.summary().ups_discharged_wh;
  const double b = dedicated.summary().ups_discharged_wh;
  EXPECT_LT(std::max(a, b), 2.5 * std::min(a, b) + 5.0);
}

}  // namespace
}  // namespace sprintcon::scenario
