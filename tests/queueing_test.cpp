// Tests for the M/M/1 interactive latency model.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "workload/queueing.hpp"

namespace sprintcon::workload {
namespace {

TEST(Latency, MeanResponseMatchesMm1Formula) {
  LatencyModel model(1000.0);
  // u=0.5 at peak: lambda=500, mu=1000 -> T = 1/500 = 2 ms.
  EXPECT_NEAR(model.mean_response_s(1.0, 0.5), 0.002, 1e-12);
  // Same load, half frequency: mu=500, lambda=500 -> saturated.
  EXPECT_TRUE(std::isinf(model.mean_response_s(0.5, 0.5)));
}

TEST(Latency, EffectiveLoadScalesInverselyWithFrequency) {
  LatencyModel model;
  EXPECT_DOUBLE_EQ(model.effective_load(1.0, 0.6), 0.6);
  EXPECT_DOUBLE_EQ(model.effective_load(0.6, 0.6), 1.0);
  EXPECT_DOUBLE_EQ(model.effective_load(0.3, 0.6), 2.0);
}

TEST(Latency, ThrottlingRaisesLatencyMonotonically) {
  LatencyModel model(1000.0);
  double prev = 0.0;
  for (double f = 1.0; f > 0.45; f -= 0.1) {
    const double t = model.mean_response_s(f, 0.4);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(Latency, PercentileIsExponentialQuantile) {
  // The response time is Exp with the model's mean m, so the quantile
  // q = m * quantile_factor(p) satisfies P(T <= q) = 1 - exp(-q / m) = p.
  for (const double p : {0.5, 0.95, 0.99}) {
    EXPECT_NEAR(1.0 - std::exp(-LatencyModel::quantile_factor(p)), p, 1e-12);
  }
  EXPECT_NEAR(LatencyModel::quantile_factor(0.5), std::log(2.0), 1e-15);
  // Higher percentile, higher latency.
  EXPECT_GT(LatencyModel::quantile_factor(0.99),
            LatencyModel::quantile_factor(0.95));
}

TEST(Latency, SaturationPropagatesToPercentiles) {
  LatencyModel model;
  EXPECT_TRUE(std::isinf(model.mean_response_s(0.5, 0.6) *
                         LatencyModel::quantile_factor(0.95)));
}

TEST(Latency, ZeroLoadGivesBareServiceTime) {
  LatencyModel model(1000.0);
  EXPECT_NEAR(model.mean_response_s(1.0, 0.0), 0.001, 1e-12);
  EXPECT_NEAR(model.mean_response_s(0.5, 0.0), 0.002, 1e-12);
}

TEST(Latency, WhyThePaperPinsInteractiveAtPeak) {
  // The core design claim: at a typical burst utilization, throttling the
  // interactive core from peak to the sprinting-game's normal frequency
  // (0.5) pushes p95 latency out by more than an order of magnitude or
  // saturates outright.
  LatencyModel model(1000.0);
  const double p95 = LatencyModel::quantile_factor(0.95);
  const double at_peak = model.mean_response_s(1.0, 0.45) * p95;
  const double throttled = model.mean_response_s(0.5, 0.45) * p95;
  EXPECT_GT(throttled, 10.0 * at_peak);
}

TEST(Latency, InvalidInputsThrow) {
  EXPECT_THROW(LatencyModel(0.0), sprintcon::InvalidArgumentError);
  LatencyModel model;
  EXPECT_THROW(model.mean_response_s(0.0, 0.5),
               sprintcon::InvalidArgumentError);
  EXPECT_THROW(model.mean_response_s(1.0, 1.5),
               sprintcon::InvalidArgumentError);
}

}  // namespace
}  // namespace sprintcon::workload
