// Tests for the server power controller (MPC loop) and UPS power
// controller against a small live rack.
#include "common/error.hpp"
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "core/server_controller.hpp"
#include "core/ups_controller.hpp"
#include "sim/clock.hpp"
#include "workload/batch_profile.hpp"

namespace sprintcon::core {
namespace {

using server::CoreRole;
using server::CpuCore;
using server::PlatformSpec;
using server::Rack;
using server::Server;

std::unique_ptr<Rack> small_rack(std::size_t n_servers = 2,
                                 double deadline_s = 720.0) {
  const PlatformSpec spec = server::paper_platform();
  Rng rng(123);
  std::vector<Server> servers;
  const auto profiles = workload::spec2006_profiles();
  std::size_t pi = 0;
  for (std::size_t s = 0; s < n_servers; ++s) {
    std::vector<CpuCore> cores;
    for (std::size_t c = 0; c < spec.cores_per_server; ++c) {
      if (c < 4) {
        cores.emplace_back(spec.freq_min, spec.freq_max,
                           workload::InteractiveTraceGenerator(
                               workload::InteractiveTraceConfig{}, rng.split()));
      } else {
        workload::BatchJob job(
            profiles[pi++ % profiles.size()], deadline_s, 400.0,
            workload::CompletionMode::kRunOnce, rng.split());
        cores.emplace_back(spec.freq_min, spec.freq_max, std::move(job));
      }
    }
    servers.emplace_back(spec, std::move(cores), rng.split());
  }
  return std::make_unique<Rack>(std::move(servers));
}

SprintConfig cfg() { return paper_config(); }

TEST(ServerController, InteractiveEstimateTracksUtilization) {
  auto rack = small_rack();
  ServerPowerController ctrl(cfg(), *rack,
                             server::LinearPowerModel(server::paper_platform()));
  sim::SimClock clock(1.0);
  rack->step(clock);
  const double est = ctrl.estimate_interactive_power_w();
  // 8 interactive cores: idle share alone is 8 * 18.75 = 150 W; plus
  // utilization-driven dynamic power.
  EXPECT_GT(est, 150.0);
  EXPECT_LT(est, 150.0 + 8 * 18.1);
}

TEST(ServerController, DrivesBatchPowerTowardTarget) {
  auto rack = small_rack();
  ServerPowerController ctrl(cfg(), *rack,
                             server::LinearPowerModel(server::paper_platform()));
  ctrl.pin_interactive_at_peak();
  sim::SimClock clock(1.0);

  // Target: batch attribution of 280 W (8 batch cores: 150 W idle share +
  // 130 W dynamic).
  const double target = 280.0;
  for (int i = 0; i < 120; ++i) {
    rack->step(clock);
    if (clock.tick() % 2 == 0) {
      ctrl.update(rack->total_power_w(), ctrl.estimate_interactive_power_w(),
                  target, clock.now_s());
    }
    clock.advance();
  }
  // Converged: the feedback power is near the target.
  EXPECT_NEAR(ctrl.last_p_fb_w(), target, 25.0);
  // Batch cores moved off the floor.
  EXPECT_GT(rack->telemetry().freq_batch, 0.22);
  // Interactive cores untouched at peak.
  EXPECT_DOUBLE_EQ(rack->telemetry().freq_interactive, 1.0);
}

TEST(ServerController, SaturatesAtPeakForHugeTarget) {
  auto rack = small_rack();
  ServerPowerController ctrl(cfg(), *rack,
                             server::LinearPowerModel(server::paper_platform()));
  sim::SimClock clock(1.0);
  for (int i = 0; i < 60; ++i) {
    rack->step(clock);
    ctrl.update(rack->total_power_w(), ctrl.estimate_interactive_power_w(),
                5000.0, clock.now_s());
    clock.advance();
  }
  EXPECT_NEAR(rack->telemetry().freq_batch, 1.0, 1e-6);
}

TEST(ServerController, IdlesAtFloorForZeroTarget) {
  auto rack = small_rack();
  ServerPowerController ctrl(cfg(), *rack,
                             server::LinearPowerModel(server::paper_platform()));
  sim::SimClock clock(1.0);
  for (int i = 0; i < 60; ++i) {
    rack->step(clock);
    ctrl.update(rack->total_power_w(), ctrl.estimate_interactive_power_w(),
                0.0, clock.now_s());
    clock.advance();
  }
  EXPECT_NEAR(rack->telemetry().freq_batch, 0.2, 1e-6);
}

TEST(ServerController, UrgentJobGetsMoreFrequency) {
  // Two servers; make one server's jobs nearly due and starve the budget:
  // the urgent jobs' cores must run faster than the relaxed ones.
  auto rack = small_rack(2);
  // Tighten deadlines of server 0's jobs by replacing progress: emulate by
  // advancing time close to the shared deadline while only server-0 jobs
  // still have work. Simpler: give the controller unequal penalty weights
  // by letting server 1 jobs complete first.
  ServerPowerController ctrl(cfg(), *rack,
                             server::LinearPowerModel(server::paper_platform()));
  sim::SimClock clock(1.0);
  // Run server 1's batch cores at peak to finish them early; keep server 0
  // at the floor.
  for (const auto& ref : rack->batch_cores()) {
    rack->core(ref).set_freq(ref.server == 1 ? 1.0 : 0.2);
  }
  for (int i = 0; i < 420; ++i) {
    rack->step(clock);
    clock.advance();
  }
  // Now control with a modest budget; server 0 jobs are far behind.
  double f0 = 0.0, f1 = 0.0;
  for (int i = 0; i < 60; ++i) {
    rack->step(clock);
    ctrl.update(rack->total_power_w(), ctrl.estimate_interactive_power_w(),
                260.0, clock.now_s());
    clock.advance();
  }
  std::size_t n0 = 0, n1 = 0;
  for (const auto& ref : rack->batch_cores()) {
    if (rack->core(ref).job()->completed()) {
      ++n1;
      f1 += rack->core(ref).freq();
    } else {
      ++n0;
      f0 += rack->core(ref).freq();
    }
  }
  ASSERT_GT(n0, 0u);
  if (n1 > 0) {
    // Completed cores idle at the floor; active (behind) cores run higher.
    EXPECT_GT(f0 / static_cast<double>(n0), f1 / static_cast<double>(n1));
  }
}

TEST(ServerController, CompletedJobsIdleTheirCores) {
  auto rack = small_rack(1, /*deadline_s=*/720.0);
  ServerPowerController ctrl(cfg(), *rack,
                             server::LinearPowerModel(server::paper_platform()));
  sim::SimClock clock(1.0);
  // Run everything at peak until all jobs complete.
  for (const auto& ref : rack->batch_cores()) rack->core(ref).set_freq(1.0);
  for (int i = 0; i < 600; ++i) {
    rack->step(clock);
    clock.advance();
  }
  for (const auto& ref : rack->batch_cores()) {
    ASSERT_TRUE(rack->core(ref).job()->completed());
  }
  // Even with a huge budget, completed cores must idle at the floor.
  ctrl.update(rack->total_power_w(), ctrl.estimate_interactive_power_w(),
              5000.0, clock.now_s());
  for (const auto& ref : rack->batch_cores()) {
    EXPECT_DOUBLE_EQ(rack->core(ref).freq(), 0.2);
  }
}

TEST(ServerController, JobStatusesReflectRack) {
  auto rack = small_rack(2);
  ServerPowerController ctrl(cfg(), *rack,
                             server::LinearPowerModel(server::paper_platform()));
  const auto statuses = ctrl.job_statuses(0.0);
  ASSERT_EQ(statuses.size(), rack->batch_cores().size());
  for (const auto& s : statuses) {
    EXPECT_TRUE(s.active);
    EXPECT_NEAR(s.remaining_work_s, 400.0, 1.0);
    EXPECT_NEAR(s.time_left_s, 720.0, 1e-9);
    EXPECT_GT(s.gain_w_per_f, 0.0);
  }
}

TEST(ServerController, ForceBatchFrequency) {
  auto rack = small_rack();
  ServerPowerController ctrl(cfg(), *rack,
                             server::LinearPowerModel(server::paper_platform()));
  ctrl.force_batch_frequency(0.6);
  EXPECT_NEAR(rack->telemetry().freq_batch, 0.6, 1e-12);
}

// --- UPS power controller ------------------------------------------------------

TEST(UpsController, CommandIsExcessOverTarget) {
  EXPECT_DOUBLE_EQ(ups_discharge_command_w(4100.0, 4000.0), 100.0);
  EXPECT_DOUBLE_EQ(ups_discharge_command_w(3900.0, 4000.0), 0.0);
  EXPECT_DOUBLE_EQ(ups_discharge_command_w(4000.0, 4000.0), 0.0);
}

TEST(UpsController, NegativeInputsThrow) {
  EXPECT_THROW(ups_discharge_command_w(-1.0, 100.0), InvalidArgumentError);
  EXPECT_THROW(ups_discharge_command_w(1.0, -100.0), InvalidArgumentError);
}

}  // namespace
}  // namespace sprintcon::core
