// Tests for settling-time analysis and sprint cadence planning.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "control/matrix.hpp"
#include "control/mpc_analysis.hpp"
#include "control/settling.hpp"
#include "core/cadence.hpp"
#include "core/config.hpp"
#include "server/power_model.hpp"

namespace sprintcon {
namespace {

// --- settling time ------------------------------------------------------------

TEST(Settling, KnownScalarContraction) {
  // x(t+1) = 0.5 x(t): reaching 5% takes ln(0.05)/ln(0.5) ~ 4.32 periods.
  const control::Matrix a = control::from_rows({{0.5}});
  EXPECT_NEAR(control::settling_periods(a, 0.05),
              std::log(0.05) / std::log(0.5), 1e-9);
  EXPECT_NEAR(control::settling_time_s(a, 2.0, 0.05),
              2.0 * std::log(0.05) / std::log(0.5), 1e-9);
}

TEST(Settling, DeadbeatIsInstant) {
  EXPECT_DOUBLE_EQ(control::settling_periods(control::from_rows({{0.0}})), 0.0);
}

TEST(Settling, UnstableNeverSettles) {
  EXPECT_TRUE(
      std::isinf(control::settling_periods(control::from_rows({{1.2}}))));
}

TEST(Settling, TighterToleranceTakesLonger) {
  const control::Matrix a = control::from_rows({{0.7}});
  EXPECT_GT(control::settling_periods(a, 0.01),
            control::settling_periods(a, 0.1));
}

TEST(Settling, InvalidToleranceThrows) {
  const control::Matrix a = control::from_rows({{0.5}});
  EXPECT_THROW(control::settling_periods(a, 0.0), InvalidArgumentError);
  EXPECT_THROW(control::settling_periods(a, 1.0), InvalidArgumentError);
  EXPECT_THROW(control::settling_time_s(a, 0.0), InvalidArgumentError);
}

TEST(Settling, PaperAllocatorPeriodExceedsMpcSettling) {
  // The Section V-C design rule, checked numerically: with the paper's
  // tuning, the MPC loop settles well within one 30-second allocator
  // period, even with a 50% plant-gain mismatch.
  const core::SprintConfig cfg = core::paper_config();
  const server::LinearPowerModel model(server::paper_platform());
  const std::size_t n = 8;
  const control::Vector model_gains(n, model.gain_w_per_f());
  control::Vector true_gains(n);
  for (auto& g : true_gains) g = model.gain_w_per_f() * 1.5;
  const control::Vector penalty(n, 0.02 * model.gain_w_per_f() *
                                       model.gain_w_per_f());
  const control::Matrix a_cl = control::mpc_closed_loop_matrix(
      cfg.mpc, model_gains, true_gains, penalty);
  const double settle_s =
      control::settling_time_s(a_cl, cfg.mpc.control_period_s, 0.05);
  EXPECT_LT(settle_s, cfg.allocator_period_s);
}

// --- cadence planner ----------------------------------------------------------

core::CadenceInputs paper_inputs() {
  core::CadenceInputs in;
  in.sprint_duration_s = 900.0;
  in.discharge_per_sprint_wh = 68.0;  // ~17% DoD of 400 Wh
  in.battery_capacity_wh = 400.0;
  in.recharge_power_w = 1000.0;
  in.charge_efficiency = 0.9;
  return in;
}

TEST(Cadence, RechargeTimeBoundsThePeriod) {
  const auto plan = core::plan_cadence(paper_inputs(), 10.0);
  // Recharge: 68 Wh / (1000 W * 0.9) = 272 s; period = 900 + 272 s.
  EXPECT_NEAR(plan.min_period_s, 900.0 + 68.0 * 3600.0 / 900.0, 1e-6);
  EXPECT_NEAR(plan.max_sprints_per_day, 86400.0 / plan.min_period_s, 1e-9);
  EXPECT_GT(plan.max_sprints_per_day, 10.0);  // the paper's cadence fits
}

TEST(Cadence, PaperCadenceOutlivesShelfLifeAtSprintConDoD) {
  // 17% DoD, 10 sprints/day: the battery lasts its chemical lifetime
  // (the paper's "do not need to replace the batteries for 10 years").
  const auto plan = core::plan_cadence(paper_inputs(), 10.0);
  EXPECT_NEAR(plan.battery_life_days, 3650.0, 1e-6);
}

TEST(Cadence, BaselineDoDWearsOutInAFewYears) {
  core::CadenceInputs in = paper_inputs();
  in.discharge_per_sprint_wh = 0.31 * 400.0;  // the baselines' 31% DoD
  const auto plan = core::plan_cadence(in, 10.0);
  EXPECT_LT(plan.battery_life_days, 3.0 * 365.0);
  EXPECT_GT(plan.battery_life_days, 100.0);
}

TEST(Cadence, DailyEnergyScalesWithCadence) {
  const auto plan5 = core::plan_cadence(paper_inputs(), 5.0);
  const auto plan10 = core::plan_cadence(paper_inputs(), 10.0);
  EXPECT_NEAR(plan10.daily_recharge_wh, 2.0 * plan5.daily_recharge_wh, 1e-6);
  EXPECT_NEAR(plan10.daily_recharge_wh, 10.0 * 68.0 / 0.9, 1e-6);
}

TEST(Cadence, InfeasibleCadenceClampsToMax) {
  core::CadenceInputs in = paper_inputs();
  in.recharge_power_w = 10.0;  // glacial recharge
  const auto plan = core::plan_cadence(in, 50.0);
  EXPECT_LT(plan.max_sprints_per_day, 50.0);
  // Life/energy computed at the clamped cadence.
  EXPECT_NEAR(plan.daily_recharge_wh,
              plan.max_sprints_per_day * 68.0 / 0.9, 1e-6);
}

TEST(Cadence, InvalidInputsThrow) {
  core::CadenceInputs in = paper_inputs();
  in.discharge_per_sprint_wh = 500.0;  // exceeds capacity
  EXPECT_THROW(core::plan_cadence(in, 10.0), InvalidArgumentError);
  in = paper_inputs();
  in.charge_efficiency = 0.0;
  EXPECT_THROW(core::plan_cadence(in, 10.0), InvalidArgumentError);
  EXPECT_THROW(core::plan_cadence(paper_inputs(), 0.0), InvalidArgumentError);
}

}  // namespace
}  // namespace sprintcon
