// Tests for recursive least squares and the adaptive gain estimator.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "control/rls.hpp"

namespace sprintcon::control {
namespace {

TEST(Rls, RecoversExactLinearModel) {
  RecursiveLeastSquares rls(2, /*forgetting=*/1.0);
  Rng rng(3);
  // y = 2 x0 - 3 x1, no noise.
  for (int i = 0; i < 100; ++i) {
    const Vector x{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    rls.update(x, 2.0 * x[0] - 3.0 * x[1]);
  }
  EXPECT_NEAR(rls.theta()[0], 2.0, 1e-4);
  EXPECT_NEAR(rls.theta()[1], -3.0, 1e-4);
  EXPECT_EQ(rls.observations(), 100u);
}

TEST(Rls, ToleratesNoise) {
  RecursiveLeastSquares rls(1, 1.0);  // no forgetting: plain LS
  Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    const Vector x{rng.uniform(0.5, 2.0)};
    rls.update(x, 5.0 * x[0] + rng.normal(0.0, 0.5));
  }
  EXPECT_NEAR(rls.theta()[0], 5.0, 0.05);
}

TEST(Rls, ForgettingTracksDrift) {
  RecursiveLeastSquares rls(1, 0.9);
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const Vector x{rng.uniform(0.5, 2.0)};
    rls.update(x, 1.0 * x[0]);
  }
  // The true gain jumps to 4; the estimator must follow within a few
  // dozen samples.
  for (int i = 0; i < 60; ++i) {
    const Vector x{rng.uniform(0.5, 2.0)};
    rls.update(x, 4.0 * x[0]);
  }
  EXPECT_NEAR(rls.theta()[0], 4.0, 0.1);
}

TEST(Rls, InvalidArgumentsThrow) {
  EXPECT_THROW(RecursiveLeastSquares(0), InvalidArgumentError);
  EXPECT_THROW(RecursiveLeastSquares(1, 0.0), InvalidArgumentError);
  EXPECT_THROW(RecursiveLeastSquares(1, 1.5), InvalidArgumentError);
  RecursiveLeastSquares rls(2);
  EXPECT_THROW(rls.update({1.0}, 1.0), InvalidArgumentError);
}

// --- gain estimator -----------------------------------------------------------

TEST(GainEstimator, ReturnsPriorUntilWarm) {
  GainEstimator est(20.0);
  EXPECT_DOUBLE_EQ(est.gain(), 20.0);
  est.observe(1.0, 30.0);
  est.observe(1.0, 30.0);
  EXPECT_DOUBLE_EQ(est.gain(), 20.0);  // still < 5 observations
}

TEST(GainEstimator, ConvergesToTrueGain) {
  GainEstimator est(20.0);
  Rng rng(11);
  const double true_gain = 31.0;
  for (int i = 0; i < 50; ++i) {
    const double df = rng.uniform(-2.0, 2.0);
    if (std::abs(df) < 0.01) continue;
    est.observe(df, true_gain * df + rng.normal(0.0, 1.0));
  }
  EXPECT_NEAR(est.gain(), true_gain, 2.0);
}

TEST(GainEstimator, ClampsAgainstPrior) {
  GainEstimator est(20.0, 0.5, 2.0);
  for (int i = 0; i < 50; ++i) est.observe(1.0, 500.0);  // absurd gain 500
  EXPECT_DOUBLE_EQ(est.gain(), 40.0);  // clamped at 2x prior
}

TEST(GainEstimator, IgnoresTinyMoves) {
  GainEstimator est(20.0);
  for (int i = 0; i < 100; ++i) est.observe(0.001, 50.0);  // noise-level
  EXPECT_EQ(est.observations(), 0u);
  EXPECT_DOUBLE_EQ(est.gain(), 20.0);
}

TEST(GainEstimator, InvalidConfigThrows) {
  EXPECT_THROW(GainEstimator(0.0), InvalidArgumentError);
  EXPECT_THROW(GainEstimator(20.0, 0.0), InvalidArgumentError);
  EXPECT_THROW(GainEstimator(20.0, 0.5, 0.9), InvalidArgumentError);
}

}  // namespace
}  // namespace sprintcon::control
