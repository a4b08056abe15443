// Tests for the adaptive gain estimator and its scalar recursive least
// squares.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "control/rls.hpp"

namespace sprintcon::control {
namespace {

// The Rls cases drive the estimator's scalar RLS directly. Their priors
// put the true gain inside the clamp, so gain() reads the RLS estimate.

TEST(Rls, ToleratesNoise) {
  GainEstimator est(4.0, 0.3, 3.0, /*forgetting=*/1.0);  // plain LS
  Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    const double x = rng.uniform(0.5, 2.0);
    est.observe(x, 5.0 * x + rng.normal(0.0, 0.5));
  }
  EXPECT_NEAR(est.gain(), 5.0, 0.05);
  EXPECT_EQ(est.observations(), 3000u);
}

TEST(Rls, ForgettingTracksDrift) {
  GainEstimator est(2.0, 0.3, 3.0, /*forgetting=*/0.9);
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform(0.5, 2.0);
    est.observe(x, 1.0 * x);
  }
  // The true gain jumps to 4; the estimator must follow within a few
  // dozen samples.
  for (int i = 0; i < 60; ++i) {
    const double x = rng.uniform(0.5, 2.0);
    est.observe(x, 4.0 * x);
  }
  EXPECT_NEAR(est.gain(), 4.0, 0.1);
}

TEST(Rls, InvalidArgumentsThrow) {
  EXPECT_THROW(GainEstimator(20.0, 0.3, 3.0, 0.0), InvalidArgumentError);
  EXPECT_THROW(GainEstimator(20.0, 0.3, 3.0, 1.5), InvalidArgumentError);
  EXPECT_NO_THROW(GainEstimator(20.0, 0.3, 3.0, 1.0));
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
