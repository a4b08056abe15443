// Tests for the multi-rack Facility coordinator.
#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "scenario/facility.hpp"

namespace sprintcon::scenario {
namespace {

FacilityConfig small_facility(bool staggered, std::size_t racks = 3) {
  FacilityConfig cfg;
  cfg.num_racks = racks;
  cfg.staggered = staggered;
  cfg.rack.num_servers = 2;
  cfg.rack.sprint.cb_rated_w = 2.0 * 300.0 * (2.0 / 3.0);
  cfg.rack.ups_capacity_wh = 50.0;
  cfg.rack.duration_s = 450.0;  // one full overload/recovery cycle
  return cfg;
}

TEST(Facility, BuildsRequestedRacks) {
  Facility facility(small_facility(true));
  EXPECT_EQ(facility.num_racks(), 3u);
  EXPECT_THROW(facility.rig(3), InvalidArgumentError);
}

TEST(Facility, RacksGetDistinctSeeds) {
  Facility facility(small_facility(false, 2));
  facility.run();
  const auto& a = facility.rig(0).recorder().series("total_power_w");
  const auto& b = facility.rig(1).recorder().series("total_power_w");
  double diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) diff += std::abs(a[i] - b[i]);
  EXPECT_GT(diff, 1.0);
}

TEST(Facility, StaggeredOffsetsFollowTheCycle) {
  const FacilityConfig cfg = small_facility(true);
  Facility facility(cfg);
  const double cycle = cfg.rack.sprint.cb_overload_duration_s +
                       cfg.rack.sprint.cb_recovery_duration_s;
  EXPECT_DOUBLE_EQ(facility.rig(0).config().sprint.schedule_offset_s, 0.0);
  EXPECT_NEAR(facility.rig(1).config().sprint.schedule_offset_s, cycle / 3.0,
              1e-9);
  EXPECT_NEAR(facility.rig(2).config().sprint.schedule_offset_s,
              2.0 * cycle / 3.0, 1e-9);
}

TEST(Facility, SynchronizedHasNoOffsets) {
  Facility facility(small_facility(false));
  for (std::size_t r = 0; r < facility.num_racks(); ++r) {
    EXPECT_DOUBLE_EQ(facility.rig(r).config().sprint.schedule_offset_s, 0.0);
  }
}

TEST(Facility, AggregateIsSumOfRacks) {
  Facility facility(small_facility(true, 2));
  facility.run();
  const TimeSeries sum = facility.facility_cb_power();
  const auto& a = facility.rig(0).recorder().series("cb_power_w");
  const auto& b = facility.rig(1).recorder().series("cb_power_w");
  ASSERT_EQ(sum.size(), a.size());
  for (std::size_t i = 0; i < sum.size(); i += 37) {
    EXPECT_NEAR(sum[i], a[i] + b[i], 1e-9);
  }
}

TEST(Facility, StaggeringFlattensThePeak) {
  Facility sync(small_facility(false));
  Facility stag(small_facility(true));
  sync.run();
  stag.run();
  EXPECT_LT(stag.cb_peak_to_mean(), sync.cb_peak_to_mean());
}

TEST(Facility, EveryRackStaysSafe) {
  Facility facility(small_facility(true));
  facility.run();
  for (const auto& summary : facility.summaries()) {
    EXPECT_EQ(summary.cb_trips, 0);
    EXPECT_LT(summary.outage_start_s, 0.0);
  }
}

TEST(Facility, ParallelRunIsBitIdenticalToSequential) {
  // Each rig owns its RNG, recorder and controllers, so the worker count
  // must not change a single recorded sample or summary metric.
  FacilityConfig sequential_cfg = small_facility(true);
  sequential_cfg.run_threads = 1;
  FacilityConfig parallel_cfg = small_facility(true);
  parallel_cfg.run_threads = 4;

  Facility sequential(sequential_cfg);
  Facility parallel(parallel_cfg);
  sequential.run();
  parallel.run();

  for (std::size_t r = 0; r < sequential.num_racks(); ++r) {
    const auto& rec_seq = sequential.rig(r).recorder();
    const auto& rec_par = parallel.rig(r).recorder();
    for (const std::string& channel : rec_seq.channel_names()) {
      const TimeSeries& a = rec_seq.series(channel);
      const TimeSeries& b = rec_par.series(channel);
      ASSERT_EQ(a.size(), b.size()) << channel << " rack " << r;
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i], b[i])
            << channel << " rack " << r << " sample " << i;
      }
    }
  }

  const auto sum_seq = sequential.summaries();
  const auto sum_par = parallel.summaries();
  ASSERT_EQ(sum_seq.size(), sum_par.size());
  for (std::size_t r = 0; r < sum_seq.size(); ++r) {
    EXPECT_EQ(sum_seq[r].avg_freq_batch, sum_par[r].avg_freq_batch);
    EXPECT_EQ(sum_seq[r].avg_total_power_w, sum_par[r].avg_total_power_w);
    EXPECT_EQ(sum_seq[r].peak_cb_power_w, sum_par[r].peak_cb_power_w);
    EXPECT_EQ(sum_seq[r].ups_discharged_wh, sum_par[r].ups_discharged_wh);
    EXPECT_EQ(sum_seq[r].cb_trips, sum_par[r].cb_trips);
    EXPECT_EQ(sum_seq[r].jobs_completed, sum_par[r].jobs_completed);
    EXPECT_EQ(sum_seq[r].worst_completion_s, sum_par[r].worst_completion_s);
  }
}

TEST(Facility, ObservedParallelRunAggregatesMetrics) {
  // Three rigs on three workers, all recording into the shared facility
  // histogram from their worker threads (the TSan-covered path).
  FacilityConfig cfg = small_facility(true);
  cfg.observability = true;
  cfg.run_threads = 3;
  Facility facility(cfg);
  facility.run();

  ASSERT_NE(facility.obs(), nullptr);
  const obs::MetricsSnapshot snap = facility.obs()->metrics().snapshot();
  EXPECT_EQ(snap.counter("facility.racks"), 3u);
  EXPECT_GT(snap.gauge("facility.run_s"), 0.0);
  // 450 s run at the default 30 s epoch = 15 barrier epochs.
  EXPECT_EQ(snap.counter("facility.epochs"), 15u);
  EXPECT_DOUBLE_EQ(snap.gauge("facility.shards"), 3.0);
  ASSERT_EQ(snap.histograms.count("facility.rack_run_us"), 1u);
  EXPECT_EQ(snap.histograms.at("facility.rack_run_us").count, 3u);

  const auto reports = facility.reports();
  ASSERT_EQ(reports.size(), 3u);
  for (std::size_t r = 0; r < reports.size(); ++r) {
    EXPECT_EQ(reports[r].label,
              std::string("SprintCon/rack") + std::to_string(r));
    EXPECT_GT(reports[r].metrics.counter("mpc.solves.structured"), 0u);
    EXPECT_FALSE(reports[r].events.empty());
  }
}

TEST(Facility, UnobservedFacilityHasNoSink) {
  FacilityConfig cfg = small_facility(false, 2);
  Facility facility(cfg);
  facility.run();
  EXPECT_EQ(facility.obs(), nullptr);
  EXPECT_THROW(facility.reports(), InvalidStateError);
}

TEST(Facility, AggregationBeforeRunThrows) {
  Facility facility(small_facility(true));
  EXPECT_THROW(facility.facility_cb_power(), InvalidStateError);
}

TEST(Facility, InvalidConfigThrows) {
  FacilityConfig cfg = small_facility(true);
  cfg.num_racks = 0;
  EXPECT_THROW(Facility{cfg}, InvalidArgumentError);
}

}  // namespace
}  // namespace sprintcon::scenario
