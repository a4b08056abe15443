// Figure 3: an example of periodic computational sprinting with a period
// of about 18 seconds (the short-timescale regime of Raghavan et al. that
// Section IV-A contrasts with SprintCon's long-term sprinting).
//
// We run a small rack whose breaker is overloaded in 3-second windows with
// 15-second recovery gaps (an 18 s period) and print the resulting
// square-wave of CB power and batch frequency.
#include <iostream>

#include "common/table.hpp"
#include "common/cli.hpp"
#include "scenario/rig.hpp"

int main(int argc, char** argv) {
  const auto options = sprintcon::parse_bench_options_or_exit(argc, argv);
  using namespace sprintcon;

  scenario::RigConfig config;
  config.num_servers = 4;
  config.sprint.cb_rated_w = 4.0 * 300.0 * (2.0 / 3.0);  // 800 W
  config.ups_capacity_wh = 100.0;
  config.sprint.cb_overload_duration_s = 3.0;
  config.sprint.cb_recovery_duration_s = 15.0;
  config.sprint.allocator_period_s = 6.0;
  config.sprint.mpc.control_period_s = 1.0;
  config.duration_s = 90.0;
  config.batch_deadline_s = 90.0;
  config.batch_work_scale = 0.15;  // short jobs for a short demo

  scenario::Rig rig(config);
  rig.run();

  std::cout << "Figure 3 - periodic sprinting, period = "
            << config.sprint.cb_overload_duration_s +
                   config.sprint.cb_recovery_duration_s
            << " s (paper example: ~18 s)\n\n";

  Table table({"t (s)", "CB budget (W)", "CB power (W)", "batch freq"});
  const auto& rec = rig.recorder();
  for (std::size_t i = 0; i < rec.series("cb_power_w").size(); i += 3) {
    table.add_row({format_fixed(rec.series("cb_power_w").time_at(i), 0),
                   format_fixed(rec.series("cb_budget_w")[i], 0),
                   format_fixed(rec.series("cb_power_w")[i], 0),
                   format_fixed(rec.series("freq_batch")[i], 2)});
  }
  std::cout << table.to_string();

  // The square wave: budget alternates between rated and overload.
  const auto& budget = rec.series("cb_budget_w");
  std::cout << "\nbudget range: " << budget.min() << " - " << budget.max()
            << " W; breaker trips: " << rig.summary().cb_trips
            << " (periodic overload keeps the breaker safe)\n";
  if (const std::string path = maybe_write_csv(
          options, "fig3_periodic_sprint", rig.recorder().all_series());
      !path.empty()) {
    std::cout << "\nseries written to " << path << '\n';
  }
  return 0;
}
