// Tests for the power load allocator: P_cb scheduling and P_batch
// adaptation (Section IV of the paper).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/allocator.hpp"

namespace sprintcon::core {
namespace {

SprintConfig cfg() { return paper_config(); }

BatchJobStatus easy_job() {
  BatchJobStatus job;
  job.remaining_work_s = 100.0;
  job.time_left_s = 600.0;
  job.compute_fraction = 0.8;
  job.gain_w_per_f = 20.0;
  job.constant_w = 18.75;
  return job;
}

// --- P_cb schedule -----------------------------------------------------------

TEST(Allocator, PeriodicScheduleAlternates) {
  PowerLoadAllocator alloc(cfg());
  // Overload window: [0, 150).
  EXPECT_DOUBLE_EQ(alloc.p_cb_at(0.0), 4000.0);
  EXPECT_DOUBLE_EQ(alloc.p_cb_at(149.0), 4000.0);
  EXPECT_TRUE(alloc.overloading_at(10.0));
  // Recovery: [150, 450).
  EXPECT_DOUBLE_EQ(alloc.p_cb_at(150.0), 3200.0);
  EXPECT_DOUBLE_EQ(alloc.p_cb_at(449.0), 3200.0);
  EXPECT_FALSE(alloc.overloading_at(300.0));
  // Second cycle.
  EXPECT_DOUBLE_EQ(alloc.p_cb_at(450.0), 4000.0);
  EXPECT_DOUBLE_EQ(alloc.p_cb_at(600.0 + 1.0), 3200.0);
}

TEST(Allocator, AfterBurstReturnsToRated) {
  PowerLoadAllocator alloc(cfg());
  EXPECT_DOUBLE_EQ(alloc.p_cb_at(900.0), 3200.0);
  EXPECT_DOUBLE_EQ(alloc.p_cb_at(5000.0), 3200.0);
}

TEST(Allocator, ContinuousPolicyForMediumBursts) {
  SprintConfig c = cfg();
  c.burst_duration_s = 420.0;  // 7 minutes
  EXPECT_EQ(c.overload_policy(), OverloadPolicy::kContinuous);
  PowerLoadAllocator alloc(c);
  EXPECT_DOUBLE_EQ(alloc.p_cb_at(0.0), 4000.0);
  EXPECT_DOUBLE_EQ(alloc.p_cb_at(419.0), 4000.0);  // no recovery mid-burst
  EXPECT_DOUBLE_EQ(alloc.p_cb_at(421.0), 3200.0);
}

TEST(Allocator, UnconstrainedPolicyForShortBursts) {
  SprintConfig c = cfg();
  c.burst_duration_s = 30.0;
  EXPECT_EQ(c.overload_policy(), OverloadPolicy::kUnconstrained);
  PowerLoadAllocator alloc(c);
  EXPECT_GT(alloc.p_cb_at(0.0), 1e9);  // effectively no CB target
}

TEST(Allocator, NegativeTimeThrows) {
  PowerLoadAllocator alloc(cfg());
  EXPECT_THROW(alloc.p_cb_at(-1.0), InvalidArgumentError);
}

// --- deadline floor ------------------------------------------------------------

TEST(Allocator, DeadlineFloorZeroWithNoJobs) {
  PowerLoadAllocator alloc(cfg());
  EXPECT_DOUBLE_EQ(alloc.deadline_floor_w({}), 0.0);
}

TEST(Allocator, DeadlineFloorGrowsAsTimeShrinks) {
  PowerLoadAllocator alloc(cfg());
  BatchJobStatus relaxed = easy_job();
  BatchJobStatus tight = easy_job();
  tight.time_left_s = 110.0;  // barely feasible
  EXPECT_GT(alloc.deadline_floor_w({tight}), alloc.deadline_floor_w({relaxed}));
}

TEST(Allocator, DeadlineFloorIgnoresInactiveJobs) {
  PowerLoadAllocator alloc(cfg());
  BatchJobStatus done = easy_job();
  done.active = false;
  EXPECT_DOUBLE_EQ(alloc.deadline_floor_w({done}), 0.0);
}

TEST(Allocator, DeadlineFloorSumsAcrossJobs) {
  PowerLoadAllocator alloc(cfg());
  const double one = alloc.deadline_floor_w({easy_job()});
  const double two = alloc.deadline_floor_w({easy_job(), easy_job()});
  EXPECT_NEAR(two, 2.0 * one, 1e-9);
}

TEST(Allocator, InfeasibleDeadlineRequestsPeakPower) {
  PowerLoadAllocator alloc(cfg());
  BatchJobStatus hopeless = easy_job();
  hopeless.time_left_s = 10.0;  // cannot finish even at peak
  const double floor_w = alloc.deadline_floor_w({hopeless});
  EXPECT_NEAR(floor_w, 20.0 * 1.0 + 18.75, 1e-9);  // peak frequency power
}

// --- adaptation -----------------------------------------------------------------

TEST(Allocator, HeadroomTracksInteractiveQuantile) {
  PowerLoadAllocator alloc(cfg());
  // Feed a stable interactive power of ~1000 W. After enough adaptation
  // periods, P_batch during overload should approach P_cb - ~1000.
  for (int period = 0; period < 20; ++period) {
    for (int i = 0; i < 30; ++i) alloc.observe_interactive_power(1000.0);
    alloc.adapt(10.0, {});
  }
  const AllocatorTargets t = alloc.targets(10.0);
  EXPECT_NEAR(t.p_batch_w, 4000.0 - 1000.0, 50.0);
}

TEST(Allocator, PBatchFollowsScheduleBetweenPhases) {
  PowerLoadAllocator alloc(cfg());
  for (int period = 0; period < 20; ++period) {
    for (int i = 0; i < 30; ++i) alloc.observe_interactive_power(1000.0);
    alloc.adapt(10.0, {});
  }
  const double overload_batch = alloc.targets(10.0).p_batch_w;
  const double recovery_batch = alloc.targets(200.0).p_batch_w;
  EXPECT_NEAR(overload_batch - recovery_batch, 800.0, 60.0);
}

TEST(Allocator, DeadlinePressureRaisesPBatch) {
  PowerLoadAllocator alloc(cfg());
  // Saturate headroom with heavy interactive power first.
  for (int period = 0; period < 20; ++period) {
    for (int i = 0; i < 30; ++i) alloc.observe_interactive_power(3900.0);
    alloc.adapt(10.0, {});
  }
  EXPECT_LT(alloc.targets(10.0).p_batch_w, 300.0);
  // Now a tight-deadline job must push the budget up regardless.
  BatchJobStatus tight = easy_job();
  tight.time_left_s = 105.0;
  alloc.adapt(10.0, {tight});
  EXPECT_GT(alloc.targets(10.0).p_batch_w, 30.0);
  EXPECT_GE(alloc.targets(10.0).p_batch_w,
            alloc.deadline_floor_w({tight}) - 1e-9);
}

TEST(Allocator, PBatchNeverExceedsPCb) {
  PowerLoadAllocator alloc(cfg());
  std::vector<BatchJobStatus> greedy(200, easy_job());
  for (auto& j : greedy) j.time_left_s = 50.0;  // all infeasible -> peak
  alloc.adapt(10.0, greedy);
  EXPECT_LE(alloc.targets(10.0).p_batch_w, alloc.targets(10.0).p_cb_w + 1e-9);
  EXPECT_LE(alloc.targets(200.0).p_batch_w, 3200.0 + 1e-9);
}

TEST(Allocator, SlewLimitBoundsAdaptationSpeed) {
  // The headroom moves at most 0.15 x rated = 480 W per adaptation.
  // 3000 W observed against the 800 W prior (a quarter of rated) asks
  // for a 2200 W move, so the bound binds and P_batch drops by exactly
  // 480 W; an unclamped move would drop it by 2200 W.
  PowerLoadAllocator alloc(cfg());
  const double before = alloc.targets(10.0).p_batch_w;
  for (int i = 0; i < 30; ++i) alloc.observe_interactive_power(3000.0);
  alloc.adapt(10.0, {});
  const double after = alloc.targets(10.0).p_batch_w;
  EXPECT_NEAR(before - after, 0.15 * 3200.0, 1e-9);
}

TEST(Allocator, ObserveRejectsNegativePower) {
  PowerLoadAllocator alloc(cfg());
  EXPECT_THROW(alloc.observe_interactive_power(-1.0), InvalidArgumentError);
}

// --- config validation ----------------------------------------------------------

TEST(Config, PaperDefaultsValid) {
  EXPECT_NO_THROW(paper_config().validate());
  EXPECT_DOUBLE_EQ(paper_config().cb_overload_w(), 4000.0);
}

TEST(Config, BadValuesThrow) {
  SprintConfig c = paper_config();
  c.cb_overload_degree = 0.5;
  EXPECT_THROW(c.validate(), InvalidArgumentError);
  c = paper_config();
  c.allocator_period_s = 0.5;  // faster than the MPC loop
  EXPECT_THROW(c.validate(), InvalidArgumentError);
}

}  // namespace
}  // namespace sprintcon::core
