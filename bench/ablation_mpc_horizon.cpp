// Ablation: MPC horizons and reference time constant.
//
// Sweeps (L_p, L_c, tau_r) on the standalone server-power-control problem:
// a live rack of batch cores tracking a square-wave P_batch target. Reports
// tracking RMSE and worst overshoot, isolating the knobs of Eq. 7/8 from
// the rest of the system.
#include <iostream>
#include <string>

#include "batch_rack.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"

using namespace sprintcon;

int main(int argc, char** argv) {
  sprintcon::reject_arguments_or_exit(argc, argv);
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
    auto rack = bench::batch_rack(55, server::paper_platform(), 900.0, 1e6);
    const bench::Tracking r =
        bench::track_square_wave(*rack, cfg, 550.0, 380.0, 10);
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
