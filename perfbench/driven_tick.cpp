#include "driven_tick.hpp"

#include <algorithm>
#include <array>
#include <chrono>

#include "common/validation.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

}  // namespace

LayerTimes& LayerTimes::operator+=(const LayerTimes& o) noexcept {
  ticks += o.ticks;
  rack_s += o.rack_s;
  controller_s += o.controller_s;
  recorder_s += o.recorder_s;
  loop_s += o.loop_s;
  return *this;
}

LayerTimes LayerTimes::without_clock_reads(double read_s) const noexcept {
  const double per_layer = static_cast<double>(ticks) * read_s;
  LayerTimes t = *this;
  t.rack_s -= per_layer;
  t.controller_s -= per_layer;
  t.recorder_s -= per_layer;
  t.loop_s -= 3.0 * per_layer;
  return t;
}

double clock_read_s() {
  constexpr int kBatches = 5;
  constexpr int kReads = 20000;
  std::array<double, kBatches> per_read{};
  for (double& s : per_read) {
    Clock::time_point last{};
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kReads; ++i) last = Clock::now();
    s = seconds(last - t0) / kReads;
  }
  std::sort(per_read.begin(), per_read.end());
  return per_read[kBatches / 2];
}

scenario::RigConfig drivable(scenario::RigConfig cfg) {
  cfg.faults = {};
  cfg.health = false;
  cfg.recovery = false;
  cfg.observability = false;
  return cfg;
}

LayerTimes drive_ticks(scenario::Rig& rig, bool sample) {
  sprintcon::core::SprintConController* const ctrl = rig.sprintcon();
  SPRINTCON_EXPECTS(ctrl != nullptr, "the driven tick needs a SprintCon rig");
  SPRINTCON_EXPECTS(rig.fault_injector() == nullptr && rig.obs() == nullptr,
                    "the driven tick cannot replay faults or obs hooks");
  sprintcon::sim::Simulation& sim = rig.simulation();
  sprintcon::sim::SimClock& clock = sim.clock();
  sprintcon::sim::TraceRecorder& rec = sim.recorder();
  sprintcon::server::Rack& rack = rig.rack();
  const double end_s = rig.config().duration_s;

  LayerTimes t;
  Clock::duration rack_d{}, ctrl_d{}, rec_d{};
  const Clock::time_point start = Clock::now();
  Clock::time_point t0 = start;
  while (clock.now_s() < end_s) {
    rack.step(clock);
    const Clock::time_point t1 = Clock::now();
    ctrl->step(clock);
    const Clock::time_point t2 = Clock::now();
    clock.advance();
    if (sample) rec.sample();
    const Clock::time_point t3 = Clock::now();
    rack_d += t1 - t0;
    ctrl_d += t2 - t1;
    rec_d += t3 - t2;
    t0 = t3;
    ++t.ticks;
  }
  t.loop_s = seconds(Clock::now() - start);
  t.rack_s = seconds(rack_d);
  t.controller_s = seconds(ctrl_d);
  t.recorder_s = seconds(rec_d);
  return t;
}

void time_step_once(scenario::Rig& rig, std::vector<double>& tick_us) {
  sprintcon::sim::Simulation& sim = rig.simulation();
  const double end_s = rig.config().duration_s;
  while (sim.clock().now_s() < end_s) {
    const Clock::time_point t0 = Clock::now();
    sim.step_once();
    tick_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
}

}  // namespace perfbench
