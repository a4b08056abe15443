// The standalone server-power-control setup the controller ablations share
// (ablation_mpc_horizon, ablation_mpc_vs_pi, ablation_adaptive_gain): a
// 4-server rack outside any Rig, and a square-wave P_batch tracking run on
// it under the ServerPowerController alone.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/server_controller.hpp"
#include "sim/clock.hpp"
#include "workload/batch_profile.hpp"

namespace sprintcon::bench {

/// Four servers of `spec`: cores 0-3 run the default interactive trace,
/// the rest run SPEC-like run-once batch jobs (profiles in order) with the
/// given absolute deadline and work in seconds-at-peak. Every stream
/// splits from one `seed`.
inline std::unique_ptr<server::Rack> batch_rack(
    std::uint64_t seed, const server::PlatformSpec& spec, double deadline_s,
    double work_s) {
  Rng rng(seed);
  std::vector<server::Server> servers;
  const auto profiles = workload::spec2006_profiles();
  std::size_t pi = 0;
  for (std::size_t s = 0; s < 4; ++s) {
    std::vector<server::CpuCore> cores;
    for (std::size_t c = 0; c < spec.cores_per_server; ++c) {
      if (c < 4) {
        cores.emplace_back(spec.freq_min, spec.freq_max,
                           workload::InteractiveTraceGenerator(
                               workload::InteractiveTraceConfig{}, rng.split()));
      } else {
        cores.emplace_back(spec.freq_min, spec.freq_max,
                           workload::BatchJob(
                               profiles[pi++ % profiles.size()], deadline_s,
                               work_s, workload::CompletionMode::kRunOnce,
                               rng.split()));
      }
    }
    servers.emplace_back(spec, std::move(cores), rng.split());
  }
  return std::make_unique<server::Rack>(std::move(servers));
}

struct Tracking {
  double rmse_w = 0.0;
  double overshoot_w = 0.0;    ///< worst positive error, 0 if none
  double gain_w_per_f = 0.0;   ///< the controller's gain at the end
};

/// 600 s of a square-wave P_batch target, `high_w` then `low_w` in 60 s
/// halves, tracked on `rack` by a ServerPowerController that believes the
/// nominal paper platform. The error counts from `settle_s` into each half.
inline Tracking track_square_wave(server::Rack& rack,
                                  const core::SprintConfig& cfg, double high_w,
                                  double low_w, int settle_s) {
  core::ServerPowerController ctrl(
      cfg, rack, server::LinearPowerModel(server::paper_platform()));
  ctrl.pin_interactive_at_peak();
  sim::SimClock clock(1.0);
  double sq_err = 0.0;
  double overshoot = 0.0;
  int samples = 0;
  for (int t = 0; t < 600; ++t) {
    rack.step(clock);
    const double target = ((t / 60) % 2 == 0) ? high_w : low_w;
    if (clock.every(cfg.mpc.control_period_s)) {
      ctrl.update(rack.total_power_w(), ctrl.estimate_interactive_power_w(),
                  target, clock.now_s());
    }
    if (t % 60 >= settle_s) {
      const double err = ctrl.last_p_fb_w() - target;
      sq_err += err * err;
      overshoot = std::max(overshoot, err);
      ++samples;
    }
    clock.advance();
  }
  return {std::sqrt(sq_err / samples), overshoot,
          ctrl.effective_gain_w_per_f()};
}

}  // namespace sprintcon::bench
