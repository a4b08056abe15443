// Ablation: MPC horizons and reference time constant.
//
// Sweeps (L_p, L_c, tau_r) on the standalone server-power-control problem:
// a live rack of batch cores tracking a square-wave P_batch target. Reports
// tracking RMSE and worst overshoot, isolating the knobs of Eq. 7/8 from
// the rest of the system.
#include <cmath>
#include <iostream>
#include <memory>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/server_controller.hpp"
#include "sim/clock.hpp"
#include "workload/batch_profile.hpp"

namespace {

using namespace sprintcon;

std::unique_ptr<server::Rack> batch_rack(std::size_t n_servers) {
  const server::PlatformSpec spec = server::paper_platform();
  Rng rng(55);
  std::vector<server::Server> servers;
  const auto profiles = workload::spec2006_profiles();
  std::size_t pi = 0;
  for (std::size_t s = 0; s < n_servers; ++s) {
    std::vector<server::CpuCore> cores;
    for (std::size_t c = 0; c < spec.cores_per_server; ++c) {
      if (c < 4) {
        cores.emplace_back(spec.freq_min, spec.freq_max,
                           workload::InteractiveTraceGenerator(
                               workload::InteractiveTraceConfig{}, rng.split()));
      } else {
        cores.emplace_back(spec.freq_min, spec.freq_max,
                           workload::BatchJob(
                               profiles[pi++ % profiles.size()], 900.0, 1e6,
                               workload::CompletionMode::kRunOnce, rng.split()));
      }
    }
    servers.emplace_back(spec, std::move(cores), rng.split());
  }
  return std::make_unique<server::Rack>(std::move(servers));
}

struct TrackingResult {
  double rmse_w = 0.0;
  double overshoot_w = 0.0;
};

TrackingResult track_square_wave(const core::SprintConfig& cfg) {
  auto rack = batch_rack(4);
  core::ServerPowerController ctrl(
      cfg, *rack, server::LinearPowerModel(server::paper_platform()));
  ctrl.pin_interactive_at_peak();
  sim::SimClock clock(1.0);

  double sq_err = 0.0, overshoot = 0.0;
  int samples = 0;
  for (int t = 0; t < 600; ++t) {
    rack->step(clock);
    // Square wave between two batch budgets, 60 s half-period.
    const double target = ((t / 60) % 2 == 0) ? 550.0 : 380.0;
    if (clock.every(cfg.mpc.control_period_s)) {
      ctrl.update(rack->total_power_w(), ctrl.estimate_interactive_power_w(),
                  target, clock.now_s());
    }
    // Measure after a settling allowance of 10 s into each half-period.
    if (t % 60 >= 10) {
      const double err = ctrl.last_p_fb_w() - target;
      sq_err += err * err;
      overshoot = std::max(overshoot, err);
      ++samples;
    }
    clock.advance();
  }
  return {std::sqrt(sq_err / samples), overshoot};
}

}  // namespace

int main() {
  std::cout << "Ablation - MPC horizons and reference time constant\n"
            << "(square-wave P_batch tracking on a 4-server batch rack)\n\n";

  Table table({"L_p", "L_c", "tau_r (s)", "RMSE (W)", "overshoot (W)"});
  const struct {
    std::size_t lp, lc;
    double tau;
  } cases[] = {
      {2, 1, 4.0}, {8, 1, 4.0},  {8, 2, 4.0},  {16, 4, 4.0},
      {8, 2, 1.0}, {8, 2, 8.0},  {8, 2, 16.0},
  };
  for (const auto& c : cases) {
    core::SprintConfig cfg = core::paper_config();
    cfg.mpc.prediction_horizon = c.lp;
    cfg.mpc.control_horizon = c.lc;
    cfg.mpc.reference_time_constant_s = c.tau;
    const TrackingResult r = track_square_wave(cfg);
    table.add_row({std::to_string(c.lp), std::to_string(c.lc),
                   format_fixed(c.tau, 0), format_fixed(r.rmse_w, 1),
                   format_fixed(r.overshoot_w, 1)});
  }
  std::cout << table.to_string();
  std::cout << "\nreading: a larger tau_r smooths the approach (less "
               "overshoot, slower settling);\nthe horizons matter little "
               "for this static-gain plant, as expected from Eq. 4.\n";
  return 0;
}
