// Deadline planner: use the library's progress model and allocator to
// answer an operator's question — "how hard do my batch jobs need to run
// to make a given deadline, and what does that cost in UPS wear?"
//
//   ./build/examples/deadline_planner [deadline_minutes]
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "common/table.hpp"
#include "core/allocator.hpp"
#include "core/cadence.hpp"
#include "scenario/rig.hpp"
#include "server/power_model.hpp"
#include "workload/batch_profile.hpp"
#include "workload/progress_model.hpp"

int main(int argc, char** argv) {
  using namespace sprintcon;

  // The whole argument must be a finite positive number: "12x" is an
  // error, not 12 minutes.
  double deadline_min = 12.0;
  if (argc > 1) {
    char* end = nullptr;
    deadline_min = std::strtod(argv[1], &end);
    if (end == argv[1] || *end != '\0') deadline_min = 0.0;
  }
  if (argc > 2 || !(deadline_min > 0.0) || !std::isfinite(deadline_min)) {
    std::cerr << "usage: deadline_planner [deadline_minutes > 0]\n";
    return 1;
  }
  const double deadline_s = deadline_min * 60.0;

  // Static plan: required frequency and power per SPEC-like profile.
  const server::LinearPowerModel model(server::paper_platform());
  std::cout << "Static plan for a " << deadline_min
            << "-minute deadline (work scaled by 0.85):\n\n";
  Table plan({"job", "mu", "work (s@peak)", "required f", "core power (W)"});
  double floor_w = 0.0;
  for (const auto& profile : workload::spec2006_profiles()) {
    const workload::ProgressModel pm(profile.compute_fraction);
    const double work = profile.nominal_work_s * 0.85;
    const double f =
        pm.frequency_for_deadline(work, deadline_s * 0.95, 0.2, 1.0);
    const double p = model.gain_w_per_f() * f + model.constant_w();
    floor_w += p;
    plan.add_row({profile.name, format_fixed(profile.compute_fraction, 2),
                  format_fixed(work, 0), format_fixed(f, 2),
                  format_fixed(p, 1)});
  }
  std::cout << plan.to_string();
  std::cout << "\n8-core deadline power floor: " << format_fixed(floor_w, 0)
            << " W per job set (the allocator's P_batch floor)\n\n";

  // Dynamic check: run the full rig at this deadline and report the cost.
  std::cout << "Simulating the full rack at this deadline...\n";
  scenario::RigConfig config;
  config.batch_deadline_s = deadline_s;
  const auto summary = scenario::run_policy(config);
  std::cout << "  all deadlines met: "
            << (summary.all_deadlines_met ? "yes" : "NO") << '\n'
            << "  worst completion:  "
            << format_fixed(summary.worst_completion_s / 60.0, 1) << " min ("
            << format_fixed(summary.normalized_time_use * 100.0, 0)
            << "% of deadline)\n"
            << "  avg batch freq:    "
            << format_fixed(summary.avg_freq_batch, 2) << '\n'
            << "  UPS DoD:           "
            << format_percent(summary.depth_of_discharge) << " -> "
            << format_fixed(summary.battery_cycle_life, 0)
            << " LFP cycles, battery lasts "
            << format_fixed(summary.battery_lifetime_days / 365.0, 1)
            << " years at 10 sprints/day\n";

  // Cadence feasibility: how often can this sprint repeat?
  core::CadenceInputs cadence;
  cadence.sprint_duration_s = 900.0;
  cadence.discharge_per_sprint_wh = summary.ups_discharged_wh;
  cadence.battery_capacity_wh = 400.0;
  cadence.recharge_power_w = 1000.0;
  const auto cadence_plan = core::plan_cadence(cadence, 10.0);
  std::cout << "\nCadence check (1 kW recharge between sprints):\n"
            << "  minimum sprint period: "
            << format_fixed(cadence_plan.min_period_s / 60.0, 1) << " min -> up to "
            << format_fixed(cadence_plan.max_sprints_per_day, 0)
            << " sprints/day feasible\n"
            << "  at 10/day: battery lasts "
            << format_fixed(cadence_plan.battery_life_days / 365.0, 1)
            << " years, recharge energy "
            << format_fixed(cadence_plan.daily_recharge_wh / 1000.0, 2)
            << " kWh/day\n";
  return 0;
}
