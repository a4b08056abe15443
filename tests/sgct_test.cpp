// Tests for the SGCT baseline controllers via small rigs.
#include <gtest/gtest.h>

#include "scenario/rig.hpp"

namespace sprintcon::baselines {
namespace {

scenario::RigConfig small_rig(scenario::Policy policy) {
  scenario::RigConfig cfg;
  cfg.policy = policy;
  cfg.num_servers = 4;
  // Scale the power infrastructure to the smaller rack: keep the paper's
  // 2/3 oversubscription ratio and 5-minute UPS.
  cfg.sprint.cb_rated_w = 4.0 * 300.0 * (2.0 / 3.0);  // 800 W
  cfg.ups_capacity_wh = 4.0 * 300.0 * (5.0 / 60.0);   // 100 Wh
  cfg.duration_s = 900.0;
  cfg.seed = 7;
  return cfg;
}

TEST(Sgct, RawTripsBreakerAndEventuallyBrownsOut) {
  scenario::Rig rig(small_rig(scenario::Policy::kSgct));
  rig.run();
  const auto summary = rig.summary();
  EXPECT_GE(summary.cb_trips, 1);
  // The paper's Figure 5 collapse: the UPS drains and the rack goes dark.
  EXPECT_GE(summary.outage_start_s, 0.0);
  EXPECT_GT(summary.depth_of_discharge, 0.9);
}

TEST(Sgct, RawFirstTripNear150s) {
  scenario::Rig rig(small_rig(scenario::Policy::kSgct));
  rig.run();
  const auto& open_series = rig.recorder().series("breaker_open");
  const double first_open = open_series.first_time_above(0.5);
  ASSERT_GE(first_open, 0.0);
  EXPECT_NEAR(first_open, 150.0, 60.0);
}

TEST(Sgct, V1NeverTripsAndKeepsTotalFlat) {
  scenario::Rig rig(small_rig(scenario::Policy::kSgctV1));
  rig.run();
  const auto summary = rig.summary();
  EXPECT_EQ(summary.cb_trips, 0);
  EXPECT_LT(summary.outage_start_s, 0.0);
  // Flat total near the budget (Fig. 6b): low relative variation once the
  // interactive burst has ramped up.
  const auto& total = rig.recorder().series("total_power_w");
  const double mean = total.mean_between(60.0, 900.0);
  EXPECT_NEAR(mean, rig.sgct()->total_budget_w(), 60.0);
}

TEST(Sgct, V2NeverTrips) {
  scenario::Rig rig(small_rig(scenario::Policy::kSgctV2));
  rig.run();
  EXPECT_EQ(rig.summary().cb_trips, 0);
}

TEST(Sgct, V2PrioritizesInteractiveOverV1) {
  scenario::Rig v1(small_rig(scenario::Policy::kSgctV1));
  scenario::Rig v2(small_rig(scenario::Policy::kSgctV2));
  v1.run();
  v2.run();
  EXPECT_GT(v2.summary().avg_freq_interactive,
            v1.summary().avg_freq_interactive);
  EXPECT_LT(v2.summary().avg_freq_batch, v1.summary().avg_freq_batch + 0.05);
}

TEST(Sgct, V1DischargesOnlyDuringRecovery) {
  scenario::Rig rig(small_rig(scenario::Policy::kSgctV1));
  rig.run();
  const auto& ups = rig.recorder().series("ups_power_w");
  // Mean discharge during the first overload window (after ramp-up) is
  // near zero; during the first recovery it is substantial.
  const double during_overload = ups.mean_between(60.0, 140.0);
  const double during_recovery = ups.mean_between(170.0, 440.0);
  EXPECT_LT(during_overload, 0.2 * during_recovery + 10.0);
  EXPECT_GT(during_recovery, 20.0);
}

TEST(Sgct, BaselinesDischargeMoreThanTheyWould)
{
  // V1 and V2 should show a clearly nonzero DoD over the sprint.
  scenario::Rig v1(small_rig(scenario::Policy::kSgctV1));
  v1.run();
  EXPECT_GT(v1.summary().depth_of_discharge, 0.05);
}

}  // namespace
}  // namespace sprintcon::baselines
