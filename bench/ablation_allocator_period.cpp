// Ablation: allocator period.
//
// Section V-C requires the power load allocator to adjust P_batch slower
// than the MPC settling time so the inner loop converges between target
// moves. This sweep shows what happens when the outer loop runs too fast
// (target churn) or too slow (sluggish adaptation).
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "scenario/rig.hpp"

int main(int argc, char** argv) {
  sprintcon::reject_arguments_or_exit(argc, argv);
  using namespace sprintcon;

  std::cout << "Ablation - allocator period (SprintCon)\n\n";
  Table table({"period (s)", "f_inter", "f_batch", "UPS Wh", "DoD",
               "deadlines met", "time use"});

  for (double period_s : {5.0, 10.0, 30.0, 60.0, 120.0}) {
    scenario::RigConfig config;
    config.sprint.allocator_period_s = period_s;
    scenario::Rig rig(config);
    rig.run();
    const auto s = rig.summary();
    table.add_row({format_fixed(period_s, 0), format_fixed(s.avg_freq_interactive, 2),
                   format_fixed(s.avg_freq_batch, 2),
                   format_fixed(s.ups_discharged_wh, 0),
                   format_percent(s.depth_of_discharge),
                   s.all_deadlines_met ? "yes" : "NO",
                   format_fixed(s.normalized_time_use, 2)});
  }
  std::cout << table.to_string();
  std::cout << "\npaper setting: 30 s - slow enough for the 2 s MPC loop to "
               "settle, fast\nenough to track interactive load shifts.\n";
  return 0;
}
