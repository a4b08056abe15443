// Tests for the classic power-capping baseline and the no-UPS ablation
// configuration.
#include <gtest/gtest.h>

#include "scenario/rig.hpp"

namespace sprintcon::scenario {
namespace {

RigConfig cap_rig() {
  RigConfig cfg;
  cfg.policy = Policy::kPowerCap;
  cfg.num_servers = 4;
  cfg.sprint.cb_rated_w = 800.0;
  cfg.ups_capacity_wh = 100.0;
  return cfg;
}

TEST(PowerCap, PolicyName) {
  EXPECT_STREQ(to_string(Policy::kPowerCap), "PowerCap");
}

TEST(PowerCap, InstantiatesTheCapController) {
  Rig rig(cap_rig());
  EXPECT_NE(rig.power_cap(), nullptr);
  EXPECT_EQ(rig.sprintcon(), nullptr);
  EXPECT_EQ(rig.sgct(), nullptr);
  EXPECT_DOUBLE_EQ(rig.power_cap()->cap_w(), 800.0);
}

TEST(PowerCap, HoldsTotalPowerBelowTheRating) {
  Rig rig(cap_rig());
  rig.run();
  const auto& total = rig.recorder().series("total_power_w");
  // Settled region: within a whisker of the rating, never sustained above.
  EXPECT_LT(total.mean_between(60.0, 900.0), 800.0);
  EXPECT_LT(total.max(), 830.0);  // transient allowance
  EXPECT_EQ(rig.summary().cb_trips, 0);
}

TEST(PowerCap, NeverTouchesTheUps) {
  Rig rig(cap_rig());
  rig.run();
  EXPECT_NEAR(rig.summary().ups_discharged_wh, 0.0, 0.5);
  EXPECT_NEAR(rig.recorder().series("battery_soc").min(), 1.0, 0.01);
}

TEST(PowerCap, SprintingBeatsCappingOnBothClasses) {
  // The premise of the whole paper: with the same infrastructure,
  // SprintCon extracts more capacity for both classes than capping.
  RigConfig cfg = cap_rig();
  Rig capped(cfg);
  cfg.policy = Policy::kSprintCon;
  Rig sprinting(cfg);
  capped.run();
  sprinting.run();
  EXPECT_GT(sprinting.summary().avg_freq_interactive,
            capped.summary().avg_freq_interactive + 0.1);
  // Interactive is uniformly throttled by capping.
  EXPECT_LT(capped.summary().avg_freq_interactive, 0.9);
}

TEST(PowerCap, CapScalesAllCoresUniformly) {
  Rig rig(cap_rig());
  rig.run_until(300.0);
  const server::RackTelemetry t = rig.rack().telemetry();
  const double fi = t.freq_interactive;
  const double fb = t.freq_batch;
  EXPECT_NEAR(fi, fb, 1e-6);  // one uniform frequency, no classes
  EXPECT_NEAR(fi, rig.power_cap()->uniform_freq(), 1e-6);
}

// --- no-UPS ablation ----------------------------------------------------------

TEST(NoUpsAblation, DisabledControllerNeverCommandsDischarge) {
  RigConfig cfg = cap_rig();
  cfg.policy = Policy::kSprintCon;
  cfg.sprint.ups_controller_enabled = false;
  Rig rig(cfg);
  rig.run();
  // No *commanded* discharge: the UPS stays idle while the breaker is
  // closed. (After a trip the inline UPS still carries the rack — that is
  // the hardware's behaviour, not the controller's.)
  const auto& ups = rig.recorder().series("ups_power_w");
  const auto& open = rig.recorder().series("breaker_open");
  const double first_open = open.first_time_above(0.5);
  const double horizon = first_open < 0.0
                             ? rig.config().duration_s
                             : first_open - 1.0;
  if (horizon > 2.0) {
    EXPECT_NEAR(ups.mean_between(0.0, horizon), 0.0, 1e-6);
  }
}

TEST(NoUpsAblation, BreakerAbsorbsTheFluctuation) {
  RigConfig cfg = cap_rig();
  cfg.policy = Policy::kSprintCon;
  Rig with_ups(cfg);
  cfg.sprint.ups_controller_enabled = false;
  Rig without_ups(cfg);
  with_ups.run();
  without_ups.run();
  // Without the UPS controller, the CB sees power above the budget that
  // the full system would have routed into the battery.
  const double excess_with =
      with_ups.summary().peak_cb_power_w -
      with_ups.recorder().series("cb_budget_w").max();
  const double excess_without =
      without_ups.summary().peak_cb_power_w -
      without_ups.recorder().series("cb_budget_w").max();
  EXPECT_GT(excess_without, excess_with + 10.0);
}

}  // namespace
}  // namespace sprintcon::scenario
