// Ablation: CB overload policy.
//
// DESIGN.md calls out SprintCon's periodic-overload choice; this harness
// compares (1) the paper's periodic schedule, (2) continuous overload for
// the whole burst (what Section IV-A prescribes only for medium bursts),
// and (3) never overloading (rated CB only), on safety, batch speed, and
// UPS wear.
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "scenario/rig.hpp"

int main(int argc, char** argv) {
  sprintcon::reject_arguments_or_exit(argc, argv);
  using namespace sprintcon;

  std::cout << "Ablation - CB overload policy (SprintCon, 15-minute burst, "
               "12-minute deadlines)\n\n";

  Table table({"policy", "CB stress max", "trips", "f_batch", "UPS Wh", "DoD",
               "deadlines met", "time use"});

  struct Case {
    const char* name;
    void (*tweak)(scenario::RigConfig&);
  };
  const Case cases[] = {
      {"periodic (paper)", [](scenario::RigConfig&) {}},
      {"continuous overload",
       [](scenario::RigConfig& cfg) {
         // Treat the 15-minute burst as a single overload window.
         cfg.sprint.long_burst_s = 1200.0;  // classify as kContinuous
       }},
      {"never overload",
       [](scenario::RigConfig& cfg) {
         cfg.sprint.cb_overload_degree = 1.0;
       }},
  };

  for (const Case& c : cases) {
    scenario::RigConfig config;
    c.tweak(config);
    scenario::Rig rig(config);
    rig.run();
    const auto s = rig.summary();
    table.add_row(
        {c.name,
         format_fixed(rig.recorder().series("cb_thermal_stress").max(), 2),
         std::to_string(s.cb_trips), format_fixed(s.avg_freq_batch, 2),
         format_fixed(s.ups_discharged_wh, 0),
         format_percent(s.depth_of_discharge),
         s.all_deadlines_met ? "yes" : "NO",
         format_fixed(s.normalized_time_use, 2)});
  }
  std::cout << table.to_string();

  std::cout
      << "\nreading: continuous overload heats the breaker toward its trip\n"
         "threshold (stress -> 1.0) or forces the safety monitor to back\n"
         "off; never overloading shifts the entire sprint burden onto the\n"
         "UPS (higher DoD) or onto the batch class (lower f_batch).\n"
         "The paper's periodic schedule is the balanced point.\n";
  return 0;
}
