// Tests for the scenario rig construction and bookkeeping.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <variant>
#include <vector>

#include "common/error.hpp"
#include "scenario/rig.hpp"

namespace sprintcon::scenario {
namespace {

RigConfig tiny() {
  RigConfig cfg;
  cfg.num_servers = 2;
  cfg.sprint.cb_rated_w = 2.0 * 300.0 * (2.0 / 3.0);
  cfg.ups_capacity_wh = 2.0 * 300.0 * (5.0 / 60.0);
  cfg.duration_s = 120.0;
  return cfg;
}

TEST(Rig, PolicyNames) {
  EXPECT_STREQ(to_string(Policy::kSprintCon), "SprintCon");
  EXPECT_STREQ(to_string(Policy::kSgct), "SGCT");
  EXPECT_STREQ(to_string(Policy::kSgctV1), "SGCT-V1");
  EXPECT_STREQ(to_string(Policy::kSgctV2), "SGCT-V2");
}

TEST(Rig, BuildsPaperTopology) {
  RigConfig cfg;  // defaults: 16 servers, 4+4 cores
  cfg.duration_s = 5.0;
  Rig rig(cfg);
  EXPECT_EQ(rig.rack().servers().size(), 16u);
  EXPECT_EQ(rig.rack().batch_cores().size(), 64u);
  EXPECT_DOUBLE_EQ(rig.power_path().battery().capacity_wh(), 400.0);
  EXPECT_DOUBLE_EQ(rig.power_path().breaker().rated_power_w(), 3200.0);
  EXPECT_NE(rig.sprintcon(), nullptr);
  EXPECT_EQ(rig.sgct(), nullptr);
}

TEST(Rig, RequestQueuePointersReachTheCores) {
  // The cores hold their queues by value, so the rig must collect its
  // pointers from the cores' final addresses. Scaling the load through
  // request_queues() must change exactly that core's next arrival rate.
  RigConfig cfg = tiny();
  cfg.use_request_queues = true;
  Rig scaled(cfg);
  Rig reference(cfg);
  const auto& queues = scaled.request_queues();
  ASSERT_EQ(queues.size(), 2u * cfg.interactive_cores_per_server);

  std::vector<const workload::RequestQueueSource*> scaled_cores;
  std::vector<const workload::RequestQueueSource*> reference_cores;
  for (std::size_t s = 0; s < cfg.num_servers; ++s) {
    for (std::size_t c = 0; c < cfg.interactive_cores_per_server; ++c) {
      scaled_cores.push_back(std::get_if<workload::RequestQueueSource>(
          &scaled.rack().servers()[s].cores()[c].workload()));
      reference_cores.push_back(std::get_if<workload::RequestQueueSource>(
          &reference.rack().servers()[s].cores()[c].workload()));
    }
  }
  ASSERT_EQ(scaled_cores.size(), queues.size());
  for (std::size_t i = 0; i < queues.size(); ++i) {
    EXPECT_EQ(queues[i], scaled_cores[i]) << "queue " << i;
  }

  const std::size_t target = 3;
  queues[target]->set_load_scale(0.5);
  scaled.run_until(cfg.dt_s);
  reference.run_until(cfg.dt_s);
  for (std::size_t i = 0; i < queues.size(); ++i) {
    const double want = reference_cores[i]->arrival_rate();
    ASSERT_GT(want, 0.0);
    EXPECT_EQ(scaled_cores[i]->arrival_rate(),
              i == target ? 0.5 * want : want)
        << "queue " << i;
  }
}

TEST(Rig, SgctPolicyInstantiatesBaseline) {
  RigConfig cfg = tiny();
  cfg.policy = Policy::kSgctV2;
  Rig rig(cfg);
  EXPECT_EQ(rig.sprintcon(), nullptr);
  ASSERT_NE(rig.sgct(), nullptr);
  EXPECT_EQ(rig.sgct()->variant(), baselines::SgctVariant::kV2);
}

TEST(Rig, RecordsAllStandardChannels) {
  Rig rig(tiny());
  rig.run();
  for (const char* name :
       {"total_power_w", "cb_power_w", "ups_power_w", "cb_budget_w",
        "p_batch_target_w", "freq_interactive", "freq_batch", "battery_soc",
        "cb_thermal_stress", "breaker_open", "unserved_w"}) {
    EXPECT_TRUE(rig.recorder().has(name)) << name;
    EXPECT_EQ(rig.recorder().series(name).size(), 120u) << name;
  }
}

TEST(Rig, ChannelListFollowsRigShape) {
  const std::vector<std::string> plain = {
      "total_power_w",    "cb_power_w",       "ups_power_w",
      "unserved_w",       "cb_budget_w",      "p_batch_target_w",
      "freq_interactive", "freq_batch",       "core_temp_max_c",
      "interactive_p95_latency_ms",           "battery_soc",
      "cb_thermal_stress", "breaker_open",    "battery_component_soc"};
  EXPECT_EQ(Rig(tiny()).recorder().channel_names(), plain);

  // A fault plan adds fault_active just before battery_component_soc.
  RigConfig faulted = tiny();
  faulted.faults = fault::FaultPlan::parse_string(
      "meter_noise start=10 duration=20 magnitude=0.05\n");
  std::vector<std::string> with_fault = plain;
  with_fault.insert(with_fault.end() - 1, "fault_active");
  EXPECT_EQ(Rig(faulted).recorder().channel_names(), with_fault);

  // Request queues append the two queue channels.
  RigConfig queued = tiny();
  queued.use_request_queues = true;
  std::vector<std::string> with_queues = plain;
  with_queues.emplace_back("queue_backlog_mean");
  with_queues.emplace_back("queue_response_ms");
  EXPECT_EQ(Rig(queued).recorder().channel_names(), with_queues);
}

TEST(Rig, DrivenReplayMatchesRun) {
  // A SprintCon rig without faults or obs ticks as rack -> controller ->
  // clock -> recorder, so driving those public calls by hand must
  // reproduce run() bit for bit on every channel.
  const RigConfig cfg = tiny();
  Rig reference(cfg);
  reference.run();

  Rig driven(cfg);
  ASSERT_NE(driven.sprintcon(), nullptr);
  sim::SimClock& clock = driven.simulation().clock();
  while (clock.now_s() < cfg.duration_s) {
    driven.rack().step(clock);
    driven.sprintcon()->step(clock);
    clock.advance();
    driven.simulation().recorder().sample();
  }

  const auto want = reference.recorder().all_series();
  const auto got = driven.recorder().all_series();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t c = 0; c < want.size(); ++c) {
    SCOPED_TRACE(want[c]->name());
    EXPECT_EQ(got[c]->name(), want[c]->name());
    ASSERT_EQ(got[c]->size(), want[c]->size());
    EXPECT_EQ(std::memcmp(got[c]->values().data(), want[c]->values().data(),
                          want[c]->size() * sizeof(double)),
              0);
  }
}

TEST(Rig, RunIsIdempotent) {
  Rig rig(tiny());
  rig.run();
  const std::size_t n = rig.recorder().series("total_power_w").size();
  rig.run();
  EXPECT_EQ(rig.recorder().series("total_power_w").size(), n);
}

TEST(Rig, SummaryCountsJobs) {
  RigConfig cfg = tiny();
  cfg.duration_s = 30.0;
  Rig rig(cfg);
  rig.run();
  const auto summary = rig.summary();
  EXPECT_EQ(summary.jobs_total, 8u);
  EXPECT_EQ(summary.jobs_completed, 0u);  // 30 s is far too short
  EXPECT_FALSE(summary.all_deadlines_met);
  EXPECT_EQ(summary.label, "SprintCon");
}

TEST(Rig, DeterministicAcrossRuns) {
  RigConfig cfg = tiny();
  Rig a(cfg), b(cfg);
  a.run();
  b.run();
  const auto& sa = a.recorder().series("total_power_w");
  const auto& sb = b.recorder().series("total_power_w");
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) EXPECT_DOUBLE_EQ(sa[i], sb[i]);
}

TEST(Rig, SeedChangesTrajectory) {
  RigConfig cfg = tiny();
  Rig a(cfg);
  cfg.seed = 43;
  Rig b(cfg);
  a.run();
  b.run();
  const auto& sa = a.recorder().series("total_power_w");
  const auto& sb = b.recorder().series("total_power_w");
  double diff = 0.0;
  for (std::size_t i = 0; i < sa.size(); ++i) diff += std::abs(sa[i] - sb[i]);
  EXPECT_GT(diff, 1.0);
}

TEST(Rig, InvalidConfigThrows) {
  RigConfig cfg = tiny();
  cfg.num_servers = 0;
  EXPECT_THROW(Rig{cfg}, InvalidArgumentError);
  cfg = tiny();
  cfg.interactive_cores_per_server = 99;
  EXPECT_THROW(Rig{cfg}, InvalidArgumentError);
  cfg = tiny();
  cfg.batch_work_scale = 0.0;
  EXPECT_THROW(Rig{cfg}, InvalidArgumentError);
}

TEST(Rig, RunPolicyConvenience) {
  RigConfig cfg = tiny();
  cfg.duration_s = 60.0;
  const auto summary = run_policy(cfg);
  EXPECT_EQ(summary.label, "SprintCon");
  EXPECT_GT(summary.avg_total_power_w, 0.0);
}

}  // namespace
}  // namespace sprintcon::scenario
