// Figure 5: uncontrolled computational sprinting (raw SGCT) trips the
// breaker, drains the UPS, and blacks out the rack.
//
// Paper narrative to reproduce: SGCT's actual power drifts slightly above
// the CB budget -> the breaker trips in ~150 s -> the UPS carries the whole
// rack during recovery -> in the second recovery period the battery runs
// out after the 11th minute -> the servers shut down, and the average
// frequencies (0.64 interactive / 0.71 batch in the paper) collapse.
#include <iostream>

#include "common/table.hpp"
#include "common/cli.hpp"
#include "scenario/rig.hpp"

int main(int argc, char** argv) {
  const auto options = sprintcon::parse_bench_options_or_exit(argc, argv);
  using namespace sprintcon;

  scenario::RigConfig config;
  config.policy = scenario::Policy::kSgct;
  scenario::Rig rig(config);
  rig.run();
  const auto& rec = rig.recorder();
  const auto summary = rig.summary();

  std::cout << "Figure 5 - uncontrolled sprinting (SGCT), minute by minute\n\n";
  Table table({"minute", "total (W)", "CB (W)", "UPS (W)", "SOC", "f_inter",
               "f_batch"});
  for (int m = 0; m < 15; ++m) {
    const double t0 = m * 60.0, t1 = t0 + 60.0;
    table.add_row({std::to_string(m + 1),
                   format_fixed(rec.series("total_power_w").mean_between(t0, t1), 0),
                   format_fixed(rec.series("cb_power_w").mean_between(t0, t1), 0),
                   format_fixed(rec.series("ups_power_w").mean_between(t0, t1), 0),
                   format_fixed(rec.series("battery_soc").mean_between(t0, t1), 2),
                   format_fixed(rec.series("freq_interactive").mean_between(t0, t1), 2),
                   format_fixed(rec.series("freq_batch").mean_between(t0, t1), 2)});
  }
  std::cout << table.to_string();

  const double first_trip = rec.series("breaker_open").first_time_above(0.5);
  std::cout << "\nevents:\n"
            << "  first CB trip at " << format_fixed(first_trip, 0)
            << " s (paper: ~150 s)\n"
            << "  total trips: " << summary.cb_trips << '\n'
            << "  UPS exhausted / outage at "
            << format_fixed(summary.outage_start_s / 60.0, 1)
            << " min (paper: after the 11th minute)\n"
            << "  avg frequency interactive "
            << format_fixed(summary.avg_freq_interactive, 2)
            << " (paper: 0.64), batch "
            << format_fixed(summary.avg_freq_batch, 2) << " (paper: 0.71)\n"
            << "  UPS DoD " << format_percent(summary.depth_of_discharge)
            << " (paper: battery fully drained)\n";
  if (const std::string path = maybe_write_csv(
          options, "fig5_uncontrolled", rig.recorder().all_series());
      !path.empty()) {
    std::cout << "\nseries written to " << path << '\n';
  }
  return 0;
}
