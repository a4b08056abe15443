// Ablation: SprintCon without its UPS power controller.
//
// The server power controller alone caps the *batch* class, but interactive
// fluctuation above P_cb has to go somewhere: with the UPS controller
// disabled, it lands on the circuit breaker, which integrates the excess
// heat. This isolates the contribution of the paper's second controller —
// controllability of the CB power, not just the total.
//
// A no-sprinting PowerCap run is included as the opposite extreme: perfect
// safety, no overload, and the capacity loss that motivates sprinting in
// the first place.
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "scenario/rig.hpp"

int main(int argc, char** argv) {
  sprintcon::reject_arguments_or_exit(argc, argv);
  using namespace sprintcon;

  std::cout << "Ablation - the UPS power controller's contribution\n\n";
  Table table({"configuration", "trips", "CB stress max", "CB peak (W)",
               "f_inter", "f_batch", "UPS Wh", "deadlines"});

  struct Case {
    const char* name;
    scenario::Policy policy;
    bool ups_enabled;
  };
  const Case cases[] = {
      {"SprintCon (full)", scenario::Policy::kSprintCon, true},
      {"SprintCon, UPS ctrl OFF", scenario::Policy::kSprintCon, false},
      {"PowerCap (no sprint)", scenario::Policy::kPowerCap, true},
  };

  for (const Case& c : cases) {
    scenario::RigConfig config;
    config.policy = c.policy;
    config.sprint.ups_controller_enabled = c.ups_enabled;
    scenario::Rig rig(config);
    rig.run();
    const auto s = rig.summary();
    table.add_row(
        {c.name, std::to_string(s.cb_trips),
         format_fixed(rig.recorder().series("cb_thermal_stress").max(), 2),
         format_fixed(s.peak_cb_power_w, 0),
         format_fixed(s.avg_freq_interactive, 2),
         format_fixed(s.avg_freq_batch, 2),
         format_fixed(s.ups_discharged_wh, 1),
         s.all_deadlines_met ? "met" : "MISSED"});
  }
  std::cout << table.to_string();
  std::cout
      << "\nreading: without the UPS controller the breaker absorbs every\n"
         "interactive spike above the budget - its thermal stress climbs\n"
         "toward (or past) the trip threshold, which is exactly the unsafe\n"
         "'uncontrolled overload' the paper's Section IV-A forbids. The\n"
         "PowerCap row shows the other extreme: safe, but batch and\n"
         "interactive both pay the full oversubscription penalty.\n";
  return 0;
}
