// Ablation: fixed linear power model vs. online RLS gain adaptation.
//
// The paper's controller uses a fixed offline model and relies on feedback
// to absorb the model error (Section V-C). This harness deliberately
// miscalibrates the platform (the real dP/df differs from the model) and
// compares the fixed-model controller against the adaptive one on
// tracking quality.
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

std::unique_ptr<server::Rack> rack_with_gain_error(double cubic_share) {
  // Changing the cubic/linear split changes the true dP/df while the
  // controller keeps using the paper_platform() calibration.
  server::PlatformSpec spec = server::paper_platform();
  spec.cubic_power_share = cubic_share;
  Rng rng(99);
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
                               profiles[pi++ % profiles.size()], 900.0, 1e6,
                               workload::CompletionMode::kRunOnce, rng.split()));
      }
    }
    servers.emplace_back(spec, std::move(cores), rng.split());
  }
  return std::make_unique<server::Rack>(std::move(servers));
}

double track(double cubic_share, bool adaptive, double* learned_gain) {
  auto rack = rack_with_gain_error(cubic_share);
  core::SprintConfig cfg = core::paper_config();
  cfg.adaptive_gain = adaptive;
  // The controller believes the *nominal* platform.
  core::ServerPowerController ctrl(
      cfg, *rack, server::LinearPowerModel(server::paper_platform()));
  ctrl.pin_interactive_at_peak();
  sim::SimClock clock(1.0);
  double sq_err = 0.0;
  int samples = 0;
  for (int t = 0; t < 600; ++t) {
    rack->step(clock);
    const double target = ((t / 60) % 2 == 0) ? 560.0 : 400.0;
    if (clock.every(cfg.mpc.control_period_s)) {
      ctrl.update(rack->total_power_w(), ctrl.estimate_interactive_power_w(),
                  target, clock.now_s());
    }
    if (t % 60 >= 12) {
      const double e = ctrl.last_p_fb_w() - target;
      sq_err += e * e;
      ++samples;
    }
    clock.advance();
  }
  if (learned_gain != nullptr) *learned_gain = ctrl.effective_gain_w_per_f();
  return std::sqrt(sq_err / samples);
}

}  // namespace

int main() {
  std::cout << "Ablation - fixed model vs. online gain adaptation (RLS)\n"
            << "(square-wave P_batch tracking under platform miscalibration)\n\n";
  Table table({"true cubic share", "controller", "RMSE (W)",
               "gain used (W/f)"});
  const double model_gain =
      server::LinearPowerModel(server::paper_platform()).gain_w_per_f();
  for (double cubic : {0.1, 0.4, 0.8}) {
    for (bool adaptive : {false, true}) {
      double gain = model_gain;
      const double rmse = track(cubic, adaptive, &gain);
      table.add_row({format_fixed(cubic, 1), adaptive ? "adaptive" : "fixed",
                     format_fixed(rmse, 1), format_fixed(gain, 1)});
    }
  }
  std::cout << table.to_string();
  std::cout << "\nreading: feedback alone already absorbs moderate model\n"
               "error (the paper's design point); RLS adaptation recovers\n"
               "the true gain and tightens tracking when the calibration is\n"
               "badly off.\n";
  return 0;
}
