// Ablation: fixed linear power model vs. online RLS gain adaptation.
//
// The paper's controller uses a fixed offline model and relies on feedback
// to absorb the model error (Section V-C). This harness deliberately
// miscalibrates the platform (the real dP/df differs from the model) and
// compares the fixed-model controller against the adaptive one on
// tracking quality.
#include <iostream>

#include "batch_rack.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"

using namespace sprintcon;

int main(int argc, char** argv) {
  sprintcon::reject_arguments_or_exit(argc, argv);
  std::cout << "Ablation - fixed model vs. online gain adaptation (RLS)\n"
            << "(square-wave P_batch tracking under platform miscalibration)\n\n";
  Table table({"true cubic share", "controller", "RMSE (W)",
               "gain used (W/f)"});
  for (double cubic : {0.1, 0.4, 0.8}) {
    for (bool adaptive : {false, true}) {
      // Changing the cubic/linear split changes the true dP/df while the
      // controller keeps using the paper_platform() calibration.
      server::PlatformSpec spec = server::paper_platform();
      spec.cubic_power_share = cubic;
      auto rack = bench::batch_rack(99, spec, 900.0, 1e6);
      core::SprintConfig cfg = core::paper_config();
      cfg.adaptive_gain = adaptive;
      const bench::Tracking r =
          bench::track_square_wave(*rack, cfg, 560.0, 400.0, 12);
      table.add_row({format_fixed(cubic, 1), adaptive ? "adaptive" : "fixed",
                     format_fixed(r.rmse_w, 1),
                     format_fixed(r.gain_w_per_f, 1)});
    }
  }
  std::cout << table.to_string();
  std::cout << "\nreading: feedback alone already absorbs moderate model\n"
               "error (the paper's design point); RLS adaptation recovers\n"
               "the true gain and tightens tracking when the calibration is\n"
               "badly off.\n";
  return 0;
}
