// Tests for the PI controller used in the MPC-vs-PI ablation.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "control/pid.hpp"

namespace sprintcon::control {
namespace {

PidConfig basic() {
  PidConfig cfg;
  cfg.kp = 0.05;
  cfg.ki = 0.1;
  cfg.output_min = 0.0;
  cfg.output_max = 1.0;
  return cfg;
}

TEST(Pi, OutputMovesWithError) {
  PiController pi(basic());
  const double up = pi.step(10.0, 0.0, 1.0);
  EXPECT_GT(up, 0.0);
  pi.reset();
  const double down = pi.step(0.0, 10.0, 1.0);
  EXPECT_DOUBLE_EQ(down, 0.0);  // clamped at output_min
}

TEST(Pi, OutputClampsToBounds) {
  PiController pi(basic());
  double u = 0.0;
  for (int i = 0; i < 100; ++i) u = pi.step(1000.0, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(u, 1.0);
}

TEST(Pi, IntegratorDrivesSteadyStateErrorToZero) {
  // First-order plant y += (u - y) * 0.5; PI must settle y at setpoint.
  PiController pi(basic());
  double y = 0.0;
  for (int i = 0; i < 400; ++i) {
    const double u = pi.step(0.6, y, 1.0);
    y += (u - y) * 0.5;
  }
  EXPECT_NEAR(y, 0.6, 1e-3);
}

TEST(Pi, AntiWindupRecoversQuickly) {
  // Saturate hard, then reverse: with anti-windup the output must leave
  // the rail within a few periods.
  PiController pi(basic());
  for (int i = 0; i < 50; ++i) pi.step(100.0, 0.0, 1.0);  // wind up
  int periods_at_rail = 0;
  for (int i = 0; i < 20; ++i) {
    if (pi.step(0.0, 100.0, 1.0) >= 1.0) ++periods_at_rail;
  }
  EXPECT_LE(periods_at_rail, 1);
}

TEST(Pi, ResetClearsIntegrator) {
  PiController pi(basic());
  pi.step(10.0, 0.0, 1.0);
  EXPECT_GT(pi.integral(), 0.0);
  pi.reset();
  EXPECT_DOUBLE_EQ(pi.integral(), 0.0);
}

TEST(Pi, InvalidConfigThrows) {
  PidConfig cfg = basic();
  cfg.output_min = 2.0;  // crossed bounds
  EXPECT_THROW(PiController{cfg}, InvalidArgumentError);
}

TEST(Pi, ZeroDtThrows) {
  PiController pi(basic());
  EXPECT_THROW(pi.step(1.0, 0.0, 0.0), InvalidArgumentError);
}

}  // namespace
}  // namespace sprintcon::control
