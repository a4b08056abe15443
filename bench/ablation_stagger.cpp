// Ablation: staggered vs. synchronized CB overload windows across racks.
//
// A facility hosting several sprinting racks sees the *sum* of their CB
// draws. If every rack overloads on the same schedule, the facility feed
// inherits the full square wave; staggering the windows (offsetting each
// rack's schedule by cycle/K) keeps the aggregate nearly flat — the same
// peak-shaving idea the paper applies within one rack, lifted one level up.
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "scenario/facility.hpp"

int main(int argc, char** argv) {
  using namespace sprintcon;
  const auto options = parse_bench_options_or_exit(argc, argv);

  std::cout << "Ablation - facility-level overload staggering (4 racks "
               "sprinting 15 minutes)\n\n";
  Table table({"schedule", "facility peak (kW)", "facility mean (kW)",
               "peak/mean", "racks safe"});

  for (bool staggered : {false, true}) {
    scenario::FacilityConfig config;
    config.num_racks = 4;
    config.staggered = staggered;
    scenario::Facility facility(config);
    facility.run();

    const TimeSeries cb = facility.facility_cb_power();
    bool all_safe = true;
    for (const auto& summary : facility.summaries()) {
      all_safe = all_safe && summary.cb_trips == 0 &&
                 summary.outage_start_s < 0.0;
    }
    table.add_row({staggered ? "staggered windows" : "synchronized windows",
                   format_fixed(cb.max() / 1000.0, 2),
                   format_fixed(cb.mean() / 1000.0, 2),
                   format_fixed(facility.cb_peak_to_mean(), 3),
                   all_safe ? "yes" : "NO"});

    const TimeSeries total = facility.facility_total_power();
    maybe_write_csv(options,
                    staggered ? "stagger_staggered" : "stagger_synchronized",
                    {&cb, &total});
  }
  std::cout << table.to_string();
  std::cout << "\nreading: staggering the racks' overload windows shaves the\n"
               "facility peak without touching any rack's own sprint - free\n"
               "headroom in the data-center level power budget the paper's\n"
               "introduction worries about.\n";
  return 0;
}
