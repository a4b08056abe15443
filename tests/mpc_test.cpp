// Tests for the MPC power controller (Eq. 7-9 of the paper) including the
// closed-loop robustness/stability property of Section V-C.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "control/eigen.hpp"
#include "control/mpc.hpp"
#include "control/mpc_analysis.hpp"

namespace sprintcon::control {
namespace {

MpcConfig basic_config() {
  MpcConfig cfg;
  cfg.prediction_horizon = 8;
  cfg.control_horizon = 2;
  cfg.control_period_s = 2.0;
  cfg.reference_time_constant_s = 4.0;
  return cfg;
}

MpcProblem two_core_problem() {
  MpcProblem p;
  p.gains_w_per_f = {20.0, 20.0};
  p.freq_current = {0.5, 0.5};
  p.freq_min = {0.2, 0.2};
  p.freq_max = {1.0, 1.0};
  p.penalty_weights = {4.0, 4.0};
  p.power_feedback_w = 20.0;  // p = K . F at 0.5/0.5 (plus 0 constant)
  p.power_target_w = 30.0;
  return p;
}

TEST(Mpc, RaisesFrequencyTowardHigherTarget) {
  MpcPowerController mpc(basic_config());
  const MpcProblem p = two_core_problem();
  MpcOutput out;
  mpc.step(p, out);
  EXPECT_GT(out.freq_next[0], 0.5);
  EXPECT_GT(out.freq_next[1], 0.5);
  EXPECT_GT(out.predicted_power_w, p.power_feedback_w);
  EXPECT_LE(out.predicted_power_w, p.power_target_w + 1.0);
}

TEST(Mpc, LowersFrequencyTowardLowerTarget) {
  MpcPowerController mpc(basic_config());
  MpcProblem p = two_core_problem();
  p.power_target_w = 10.0;
  MpcOutput out;
  mpc.step(p, out);
  EXPECT_LT(out.freq_next[0], 0.5);
  EXPECT_LT(out.freq_next[1], 0.5);
}

TEST(Mpc, RespectsFrequencyBounds) {
  MpcPowerController mpc(basic_config());
  MpcProblem p = two_core_problem();
  p.power_target_w = 1000.0;  // unreachable high
  MpcOutput out;
  mpc.step(p, out);
  EXPECT_LE(out.freq_next[0], 1.0 + 1e-12);
  p.power_target_w = 0.0;  // unreachable low
  mpc.reset();
  mpc.step(p, out);
  EXPECT_GE(out.freq_next[0], 0.2 - 1e-12);
}

TEST(Mpc, HigherPenaltyCoreGetsMoreFrequency) {
  // Both cores identical except the penalty weight: the more urgent job
  // (larger R) must end up closer to peak (Section V-B).
  MpcPowerController mpc(basic_config());
  MpcProblem p = two_core_problem();
  p.penalty_weights = {1.0, 8.0};
  p.power_target_w = 28.0;  // not enough for both at peak
  MpcOutput out;
  mpc.step(p, out);
  EXPECT_GT(out.freq_next[1], out.freq_next[0]);
}

TEST(Mpc, ConvergesOnSimulatedPlant) {
  // Close the loop against the exact linear plant: power must converge to
  // the target within a few settling periods.
  MpcPowerController mpc(basic_config());
  MpcProblem p = two_core_problem();
  const double constant_w = 5.0;
  double power = constant_w + 20.0 * (p.freq_current[0] + p.freq_current[1]);
  p.power_target_w = 40.0;
  for (int step = 0; step < 30; ++step) {
    p.power_feedback_w = power;
    MpcOutput out;
    mpc.step(p, out);
    p.freq_current = out.freq_next;
    power = constant_w + 20.0 * (p.freq_current[0] + p.freq_current[1]);
  }
  EXPECT_NEAR(power, 40.0, 0.5);
}

TEST(Mpc, ConvergesDespiteGainMismatch) {
  // Plant gain 30% below the model: feedback still drives power to the
  // target (the modeling-error tolerance of Section V-C).
  MpcPowerController mpc(basic_config());
  MpcProblem p = two_core_problem();
  const double true_gain = 14.0;  // model says 20
  double power = true_gain * (p.freq_current[0] + p.freq_current[1]);
  p.power_target_w = 25.0;
  for (int step = 0; step < 60; ++step) {
    p.power_feedback_w = power;
    MpcOutput out;
    mpc.step(p, out);
    p.freq_current = out.freq_next;
    power = true_gain * (p.freq_current[0] + p.freq_current[1]);
  }
  EXPECT_NEAR(power, 25.0, 0.5);
}

TEST(Mpc, InvalidConfigThrows) {
  MpcConfig cfg = basic_config();
  cfg.control_horizon = 0;
  EXPECT_THROW(MpcPowerController{cfg}, InvalidArgumentError);
  cfg = basic_config();
  cfg.prediction_horizon = 1;
  cfg.control_horizon = 2;
  EXPECT_THROW(MpcPowerController{cfg}, InvalidArgumentError);
  cfg = basic_config();
  cfg.reference_time_constant_s = 0.0;
  EXPECT_THROW(MpcPowerController{cfg}, InvalidArgumentError);
}

TEST(Mpc, InvalidProblemThrows) {
  MpcPowerController mpc(basic_config());
  MpcOutput out;
  MpcProblem p = two_core_problem();
  p.freq_min = {0.9, 0.9};
  p.freq_max = {0.2, 0.2};
  EXPECT_THROW(mpc.step(p, out), InvalidArgumentError);
  p = two_core_problem();
  p.penalty_weights = {-1.0, 1.0};
  EXPECT_THROW(mpc.step(p, out), InvalidArgumentError);
  p.penalty_weights = {0.0, 1.0};
  EXPECT_THROW(mpc.step(p, out), InvalidArgumentError);
  p = two_core_problem();
  p.gains_w_per_f.pop_back();
  EXPECT_THROW(mpc.step(p, out), InvalidArgumentError);
}

// --- closed-loop stability (Section V-C) -----------------------------------

class MpcStability : public ::testing::TestWithParam<double> {};

TEST_P(MpcStability, StableAcrossGainMismatch) {
  // The closed-loop poles stay inside the unit circle for plant gains from
  // 40% to 250% of the model gain — the theoretical guarantee the paper
  // claims for bounded modeling errors.
  const double mismatch = GetParam();
  const MpcConfig cfg = basic_config();
  const Vector model_gains(8, 20.0);
  Vector true_gains(8);
  for (auto& g : true_gains) g = 20.0 * mismatch;
  const Vector penalty(8, 4.0);
  const Matrix a_cl =
      mpc_closed_loop_matrix(cfg, model_gains, true_gains, penalty);
  EXPECT_TRUE(is_schur_stable(a_cl))
      << "unstable at mismatch " << mismatch
      << ", rho = " << spectral_radius(a_cl);
}

INSTANTIATE_TEST_SUITE_P(GainMismatch, MpcStability,
                         ::testing::Values(0.4, 0.6, 0.8, 1.0, 1.3, 1.7, 2.0,
                                           2.5));

TEST(MpcStability, ExtremeGainInflationCanDestabilize) {
  // Sanity check that the test is not vacuous: a absurdly wrong model
  // (plant gain 50x the model) pushes the poles out.
  const MpcConfig cfg = basic_config();
  const Vector model_gains(4, 20.0);
  const Vector true_gains(4, 20.0 * 50.0);
  const Vector penalty(4, 4.0);
  const Matrix a_cl =
      mpc_closed_loop_matrix(cfg, model_gains, true_gains, penalty);
  EXPECT_FALSE(is_schur_stable(a_cl));
}

}  // namespace
}  // namespace sprintcon::control
