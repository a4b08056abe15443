// Ablation: MPC vs. a classical PI loop for the server power controller.
//
// Both controllers track the same P_batch target on the same rack. The PI
// loop commands one uniform batch frequency (it is SISO); the MPC assigns
// per-core frequencies weighted by deadline urgency (Eq. 8's R weights).
// Expected outcome: similar aggregate tracking, but the MPC balances job
// completion times while the PI loop lets slow (memory-bound) jobs lag.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>

#include "batch_rack.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "control/pid.hpp"

namespace {

using namespace sprintcon;

/// The 4-server rack both controllers run: batch jobs due at 12 minutes
/// with 380 s of work at peak each.
std::unique_ptr<server::Rack> batch_rack() {
  return bench::batch_rack(66, server::paper_platform(), 720.0, 380.0);
}

struct Outcome {
  double rmse_w = 0.0;
  double completion_spread_s = 0.0;  // latest - earliest job completion
  std::size_t completed = 0;
};

Outcome finish(server::Rack& rack, double sq_err, int samples) {
  Outcome o;
  o.rmse_w = std::sqrt(sq_err / std::max(samples, 1));
  double earliest = 1e18, latest = 0.0;
  for (const auto& ref : rack.batch_cores()) {
    const auto& job = *rack.core(ref).job();
    if (job.completion_time_s() >= 0.0) {
      ++o.completed;
      earliest = std::min(earliest, job.completion_time_s());
      latest = std::max(latest, job.completion_time_s());
    }
  }
  o.completion_spread_s = o.completed ? latest - earliest : 0.0;
  return o;
}

Outcome run_mpc(double target_w) {
  auto rack = batch_rack();
  const core::SprintConfig cfg = core::paper_config();
  core::ServerPowerController ctrl(
      cfg, *rack, server::LinearPowerModel(server::paper_platform()));
  ctrl.pin_interactive_at_peak();
  sim::SimClock clock(1.0);
  double sq_err = 0.0;
  int samples = 0;
  for (int t = 0; t < 900; ++t) {
    rack->step(clock);
    if (clock.every(cfg.mpc.control_period_s)) {
      ctrl.update(rack->total_power_w(), ctrl.estimate_interactive_power_w(),
                  target_w, clock.now_s());
    }
    // RMSE over the settled window before any job completes (afterwards
    // the target may be unreachable and the error means nothing).
    if (t > 30 && t < 350) {
      const double e = ctrl.last_p_fb_w() - target_w;
      sq_err += e * e;
      ++samples;
    }
    clock.advance();
  }
  return finish(*rack, sq_err, samples);
}

Outcome run_pi(double target_w) {
  auto rack = batch_rack();
  const server::LinearPowerModel model(server::paper_platform());
  // PI on the aggregate: output is one uniform normalized frequency.
  control::PidConfig pid;
  pid.kp = 0.0006;
  pid.ki = 0.0012;
  pid.output_min = 0.2;
  pid.output_max = 1.0;
  control::PiController pi(pid);
  rack->for_each_core(server::CoreRole::kInteractive,
                      [](server::CpuCore& c) { c.set_freq(c.freq_max()); });

  sim::SimClock clock(1.0);
  double sq_err = 0.0;
  int samples = 0;
  for (int t = 0; t < 900; ++t) {
    rack->step(clock);
    // Same feedback signal the MPC uses (Eq. 6).
    double p_inter = 0.0;
    for (const auto& s : rack->servers()) {
      for (const auto& c : s.cores()) {
        if (!c.is_batch()) p_inter += model.interactive_power_w(c.utilization());
      }
    }
    const double p_fb = std::max(0.0, rack->total_power_w() - p_inter);
    if (clock.every(2.0)) {
      const double f = pi.step(target_w, p_fb, 2.0);
      rack->for_each_core(server::CoreRole::kBatch, [f](server::CpuCore& c) {
        c.set_freq(c.job()->completed() ? c.freq_min() : f);
      });
    }
    if (t > 30 && t < 350) {
      const double e = p_fb - target_w;
      sq_err += e * e;
      ++samples;
    }
    clock.advance();
  }
  return finish(*rack, sq_err, samples);
}

}  // namespace

int main(int argc, char** argv) {
  sprintcon::reject_arguments_or_exit(argc, argv);
  std::cout << "Ablation - MPC vs. PI server power controller\n"
            << "(constant P_batch target on a 4-server rack, 15 minutes)\n\n";

  Table table({"target (W)", "controller", "tracking RMSE (W)",
               "jobs completed", "completion spread (s)"});
  for (double target : {450.0, 550.0}) {
    const Outcome mpc = run_mpc(target);
    const Outcome pi = run_pi(target);
    table.add_row({format_fixed(target, 0), "MPC", format_fixed(mpc.rmse_w, 1),
                   std::to_string(mpc.completed),
                   format_fixed(mpc.completion_spread_s, 0)});
    table.add_row({format_fixed(target, 0), "PI", format_fixed(pi.rmse_w, 1),
                   std::to_string(pi.completed),
                   format_fixed(pi.completion_spread_s, 0)});
  }
  std::cout << table.to_string();
  std::cout << "\nreading: both loops track the aggregate budget, but the\n"
               "MPC's per-core R weights shrink the spread between the\n"
               "earliest and latest job completion - the progress balancing\n"
               "of Section V-B that a SISO PI loop cannot express.\n";
  return 0;
}
