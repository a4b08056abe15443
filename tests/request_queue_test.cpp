// Tests for the closed-loop request-queue interactive source.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "scenario/rig.hpp"
#include "workload/request_queue.hpp"

namespace sprintcon {
namespace {

using workload::RequestQueueConfig;
using workload::RequestQueueSource;

RequestQueueConfig quiet_config(double load) {
  RequestQueueConfig cfg;
  cfg.offered_load.mean_utilization = load;
  cfg.offered_load.noise_sigma = 0.0;
  cfg.offered_load.spike_rate_per_s = 0.0;
  cfg.offered_load.swell_amplitude = 0.0;
  cfg.offered_load.ramp_up_s = 0.0;
  return cfg;
}

TEST(RequestQueue, UnderloadedUtilizationMatchesOfferedLoad) {
  RequestQueueSource queue(quiet_config(0.5), Rng(1));
  double u = 0.0;
  for (int i = 0; i < 60; ++i) u = queue.step(1.0, 1.0);
  EXPECT_NEAR(u, 0.5, 0.02);
  EXPECT_NEAR(queue.backlog(), 0.0, 1e-9);
}

TEST(RequestQueue, ThrottlingRaisesUtilization) {
  // Offered load 0.4 of peak; core at f=0.5 has capacity 0.5 -> rho = 0.8.
  RequestQueueSource queue(quiet_config(0.4), Rng(2));
  double u = 0.0;
  for (int i = 0; i < 60; ++i) u = queue.step(1.0, 0.5);
  EXPECT_NEAR(u, 0.8, 0.03);
  EXPECT_NEAR(queue.backlog(), 0.0, 1e-6);
}

TEST(RequestQueue, OverloadBuildsBacklogAndSaturatesUtilization) {
  // Offered 0.6, capacity 0.4: backlog grows by 200 req/s.
  RequestQueueSource queue(quiet_config(0.6), Rng(3));
  for (int i = 0; i < 100; ++i) queue.step(1.0, 0.4);
  EXPECT_DOUBLE_EQ(queue.utilization(), 1.0);
  EXPECT_NEAR(queue.backlog(), 100.0 * 0.2 * 1000.0, 0.05 * 20000.0);
  EXPECT_GT(queue.response_time_s(), 1.0);  // seconds of queueing delay
}

TEST(RequestQueue, BacklogDrainsWhenCapacityReturns) {
  RequestQueueSource queue(quiet_config(0.6), Rng(4));
  for (int i = 0; i < 50; ++i) queue.step(1.0, 0.4);  // build backlog
  const double peak_backlog = queue.backlog();
  ASSERT_GT(peak_backlog, 1000.0);
  // Back at full speed: capacity 1.0 vs offered 0.6 drains 400 req/s.
  double u = 1.0;
  for (int i = 0; i < 40; ++i) u = queue.step(1.0, 1.0);
  EXPECT_LT(queue.backlog(), 1.0);
  // While draining, the core ran flat out; once drained it settles at the
  // offered load.
  EXPECT_NEAR(u, 0.6, 0.03);
}

TEST(RequestQueue, AdmissionControlShedsBeyondCap) {
  RequestQueueConfig cfg = quiet_config(1.0);
  cfg.max_backlog = 500.0;
  RequestQueueSource queue(cfg, Rng(5));
  for (int i = 0; i < 100; ++i) queue.step(1.0, 0.2);
  EXPECT_DOUBLE_EQ(queue.backlog(), 500.0);
  EXPECT_GT(queue.shed_requests(), 0.0);
}

TEST(RequestQueue, ResponseTimeIsServiceTimeWhenIdle) {
  RequestQueueSource queue(quiet_config(0.0), Rng(6));
  queue.step(1.0, 1.0);
  EXPECT_NEAR(queue.response_time_s(), 1.0 / 1000.0, 1e-9);
}

TEST(RequestQueue, InvalidInputsThrow) {
  EXPECT_THROW(RequestQueueSource(
                   [] {
                     RequestQueueConfig c;
                     c.service_rate_peak = 0.0;
                     return c;
                   }(),
                   Rng(1)),
               InvalidArgumentError);
  RequestQueueSource queue(quiet_config(0.5), Rng(7));
  EXPECT_THROW(queue.step(0.0, 1.0), InvalidArgumentError);
  EXPECT_THROW(queue.step(1.0, 1.5), InvalidArgumentError);
}

// --- rig integration -----------------------------------------------------------

TEST(RequestQueue, RigSprintConKeepsQueuesDrained) {
  scenario::RigConfig cfg;
  cfg.num_servers = 4;
  cfg.sprint.cb_rated_w = 800.0;
  cfg.ups_capacity_wh = 100.0;
  cfg.use_request_queues = true;
  scenario::Rig rig(cfg);
  rig.run();
  ASSERT_FALSE(rig.request_queues().empty());
  // SprintCon pins interactive cores at peak: backlog stays negligible and
  // response times stay near the bare service time.
  EXPECT_LT(rig.recorder().series("queue_backlog_mean").max(), 50.0);
  EXPECT_LT(rig.recorder().series("queue_response_ms").mean(), 5.0);
  EXPECT_EQ(rig.summary().cb_trips, 0);
}

TEST(RequestQueue, RigBaselineThrottlingBuildsRealBacklog) {
  // SGCT-V1 throttles low-utilization interactive cores to the normal
  // frequency; with closed-loop queues that shows up as backlog and
  // inflated response times — measured, not modeled.
  scenario::RigConfig cfg;
  cfg.num_servers = 4;
  cfg.sprint.cb_rated_w = 800.0;
  cfg.ups_capacity_wh = 100.0;
  cfg.use_request_queues = true;
  cfg.policy = scenario::Policy::kSgctV1;
  scenario::Rig rig(cfg);
  rig.run();
  scenario::RigConfig ours = cfg;
  ours.policy = scenario::Policy::kSprintCon;
  scenario::Rig ours_rig(ours);
  ours_rig.run();
  EXPECT_GT(rig.recorder().series("queue_response_ms").mean(),
            2.0 * ours_rig.recorder().series("queue_response_ms").mean());
}

TEST(RequestQueue, RigWithoutQueuesHasNoQueueChannels) {
  scenario::RigConfig cfg;
  cfg.num_servers = 2;
  cfg.sprint.cb_rated_w = 400.0;
  cfg.ups_capacity_wh = 50.0;
  cfg.duration_s = 30.0;
  scenario::Rig rig(cfg);
  EXPECT_TRUE(rig.request_queues().empty());
  EXPECT_FALSE(rig.recorder().has("queue_backlog_mean"));
}

}  // namespace
}  // namespace sprintcon
