// Tests for the per-core thermal model, the server's SoA thermal kernel
// built on it, and the controller's thermal guard.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/error.hpp"
#include "core/server_controller.hpp"
#include "server/core_thermal.hpp"
#include "server/thermal.hpp"
#include "sim/clock.hpp"
#include "workload/batch_profile.hpp"

namespace sprintcon::server {
namespace {

ThermalSpec default_spec() { return ThermalSpec{}; }

TEST(Thermal, StartsAtAmbient) {
  CoreThermalModel model(default_spec());
  EXPECT_DOUBLE_EQ(model.temperature_c(), 25.0);
  EXPECT_FALSE(model.above_throttle());
}

TEST(Thermal, ApproachesSteadyStateExponentially) {
  CoreThermalModel model(default_spec());
  const double power = 10.0;
  const double target = model.steady_state_c(power);
  for (int i = 0; i < 200; ++i) model.step(power, 1.0);
  EXPECT_NEAR(model.temperature_c(), target, 0.01);
}

TEST(Thermal, OneTimeConstantReaches63Percent) {
  ThermalSpec spec = default_spec();
  spec.time_constant_s = 10.0;
  CoreThermalModel model(spec);
  const double power = 20.0;
  for (int i = 0; i < 10; ++i) model.step(power, 1.0);
  const double rise = model.temperature_c() - spec.ambient_c;
  const double full = model.steady_state_c(power) - spec.ambient_c;
  EXPECT_NEAR(rise / full, 1.0 - std::exp(-1.0), 0.02);
}

TEST(Thermal, CoolsBackToAmbient) {
  CoreThermalModel model(default_spec());
  for (int i = 0; i < 100; ++i) model.step(25.0, 1.0);
  EXPECT_GT(model.temperature_c(), 50.0);
  for (int i = 0; i < 300; ++i) model.step(0.0, 1.0);
  EXPECT_NEAR(model.temperature_c(), 25.0, 0.1);
}

TEST(Thermal, DefaultCalibrationSustainsPeakPower) {
  // The paper platform's peak core power (18 W) must be thermally
  // sustainable under nominal cooling — sprinting is breaker-limited, not
  // thermally limited, in this evaluation.
  const CoreThermalModel model(default_spec());
  const double peak_core_w = paper_platform().core_dynamic_peak_w();
  EXPECT_GT(model.sustainable_power_w(), peak_core_w);
}

TEST(Thermal, DegradedCoolingThrottles) {
  ThermalSpec spec = default_spec();
  spec.resistance_c_per_w = 4.0;  // failed fan: 18 W -> 97 C steady state
  CoreThermalModel model(spec);
  for (int i = 0; i < 300; ++i) model.step(18.0, 1.0);
  EXPECT_TRUE(model.above_throttle());
  EXPECT_TRUE(model.critical());
}

TEST(Thermal, InvalidSpecThrows) {
  ThermalSpec spec = default_spec();
  spec.throttle_temp_c = 20.0;  // below ambient
  EXPECT_THROW(CoreThermalModel{spec}, sprintcon::InvalidArgumentError);
  spec = default_spec();
  spec.time_constant_s = 0.0;
  EXPECT_THROW(CoreThermalModel{spec}, sprintcon::InvalidArgumentError);
}

TEST(Thermal, StepInputValidation) {
  CoreThermalModel model(default_spec());
  EXPECT_THROW(model.step(-1.0, 1.0), sprintcon::InvalidArgumentError);
  EXPECT_THROW(model.step(1.0, 0.0), sprintcon::InvalidArgumentError);
}

// --- integration with Server / controller -----------------------------------

/// One paper-platform server: four interactive cores, four batch cores.
Server paper_server(Rng& rng, const ThermalSpec& thermal = ThermalSpec{}) {
  const PlatformSpec spec = paper_platform();
  std::vector<CpuCore> cores;
  for (std::size_t c = 0; c < spec.cores_per_server; ++c) {
    if (c < 4) {
      cores.emplace_back(spec.freq_min, spec.freq_max,
                         workload::InteractiveTraceGenerator(
                             workload::InteractiveTraceConfig{}, rng.split()));
    } else {
      cores.emplace_back(spec.freq_min, spec.freq_max,
                         workload::BatchJob(
                             workload::spec2006_profile("444.namd"), 900.0,
                             1e6, workload::CompletionMode::kRunOnce,
                             rng.split()));
    }
  }
  return Server(spec, std::move(cores), rng.split(), thermal);
}

ThermalSpec hot_spec() {
  ThermalSpec hot;
  hot.resistance_c_per_w = 4.0;  // degraded cooling
  return hot;
}

std::unique_ptr<Rack> hot_rack() {
  // One server, degraded cooling on every core.
  Rng rng(321);
  std::vector<Server> servers;
  servers.push_back(paper_server(rng, hot_spec()));
  return std::make_unique<Rack>(std::move(servers));
}

TEST(Thermal, ServerKernelMatchesCoreModel) {
  // The server-owned SoA kernel must reproduce a standalone
  // CoreThermalModel per core fed the same dynamic power, bit for bit,
  // across frequency changes and a dt change in each direction.
  auto rack = hot_rack();
  Server& server = rack->servers().front();
  const MeasurementPowerModel measurement(server.spec());
  std::vector<CoreThermalModel> reference(server.cores().size(),
                                          CoreThermalModel(hot_spec()));
  double now_s = 0.0;
  for (int t = 0; t < 150; ++t) {
    const double dt_s = (t >= 50 && t < 100) ? 0.5 : 1.0;
    for (CpuCore& c : server.cores()) {
      if (c.is_batch()) c.set_freq((t / 10) % 2 == 0 ? 1.0 : 0.4);
    }
    server.step(dt_s, now_s);
    now_s += dt_s;
    for (std::size_t i = 0; i < server.cores().size(); ++i) {
      const CpuCore& core = server.cores()[i];
      reference[i].step(
          measurement.core_dynamic_w(core.freq(), core.utilization()), dt_s);
      ASSERT_EQ(server.core_temp_c(i), reference[i].temperature_c())
          << "tick " << t << " core " << i;
    }
  }
  EXPECT_GT(server.core_temp_c(server.cores().size() - 1),
            hot_spec().ambient_c + 10.0);
}

TEST(ThermalGuard, BacksOffHotCores) {
  auto rack = hot_rack();
  const core::SprintConfig cfg = core::paper_config();
  core::ServerPowerController ctrl(cfg, *rack,
                                   LinearPowerModel(paper_platform()));
  ctrl.pin_interactive_at_peak();
  sim::SimClock clock(1.0);
  double max_temp = 0.0;
  for (int t = 0; t < 600; ++t) {
    rack->step(clock);
    if (clock.every(cfg.mpc.control_period_s)) {
      // A huge budget: without the guard every core would pin at peak.
      ctrl.update(rack->total_power_w(), ctrl.estimate_interactive_power_w(),
                  5000.0, clock.now_s());
    }
    for (const auto& ref : rack->batch_cores()) {
      max_temp = std::max(max_temp,
                          rack->servers()[ref.server].core_temp_c(ref.core));
    }
    clock.advance();
  }
  // The guard must keep the cores out of the critical region.
  EXPECT_LT(max_temp, ThermalSpec{}.critical_temp_c + 2.0);
  // And the batch cores cannot be running at peak.
  EXPECT_LT(rack->telemetry().freq_batch, 0.99);
}

TEST(ThermalGuard, DisabledGuardLetsCoresOverheat) {
  // The premise of BacksOffHotCores: without the guard the same hot rack
  // overheats. Holding the batch cores at peak every period, around the
  // guarded update(), is what an unguarded controller under that huge
  // budget would do.
  auto rack = hot_rack();
  const core::SprintConfig cfg = core::paper_config();
  core::ServerPowerController ctrl(cfg, *rack,
                                   LinearPowerModel(paper_platform()));
  sim::SimClock clock(1.0);
  for (int t = 0; t < 600; ++t) {
    rack->step(clock);
    if (clock.every(cfg.mpc.control_period_s)) {
      ctrl.force_batch_frequency(paper_platform().freq_max);
    }
    clock.advance();
  }
  bool any_critical = false;
  for (const auto& ref : rack->batch_cores()) {
    any_critical = any_critical ||
                   rack->servers()[ref.server].core_temp_c(ref.core) >=
                       ThermalSpec{}.critical_temp_c;
  }
  EXPECT_TRUE(any_critical);
}

TEST(Thermal, DirectlyBuiltServerHeatsLikeCoreModel) {
  // A server built on its own, outside any rig, owns its cores'
  // temperatures from construction: run at peak for 60 s, every core
  // tracks a standalone CoreThermalModel fed its dynamic power, rises
  // above ambient and, at the default cooling, stays below throttle.
  Rng rng(5);
  Server server = paper_server(rng);
  const MeasurementPowerModel measurement(server.spec());
  std::vector<CoreThermalModel> reference(server.cores().size(),
                                          CoreThermalModel(default_spec()));
  for (CpuCore& c : server.cores()) c.set_freq(c.freq_max());
  for (int t = 0; t < 60; ++t) {
    server.step(1.0, static_cast<double>(t));
    for (std::size_t i = 0; i < server.cores().size(); ++i) {
      const CpuCore& core = server.cores()[i];
      reference[i].step(
          measurement.core_dynamic_w(core.freq(), core.utilization()), 1.0);
    }
  }
  for (std::size_t i = 0; i < server.cores().size(); ++i) {
    EXPECT_EQ(server.core_temp_c(i), reference[i].temperature_c())
        << "core " << i;
    EXPECT_GT(server.core_temp_c(i), default_spec().ambient_c);
    EXPECT_FALSE(server.core_throttled(i));
  }
}

}  // namespace
}  // namespace sprintcon::server
