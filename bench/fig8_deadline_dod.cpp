// Figure 8: batch deadlines and energy efficiency.
//
// (a) Normalized time use vs. deadline (9 / 12 / 15 minutes): every
//     controlled policy meets the deadline, but only SprintCon uses the
//     slack — finishing close to the deadline and saving power — while
//     the baselines run batch unnecessarily fast.
// (b) UPS depth of discharge vs. deadline, with the LFP cycle-life and
//     battery-replacement consequences (paper: SprintCon 17% @ 12 min vs.
//     31% for V1/V2 -> >40,000 vs. <10,000 cycles).
#include <iostream>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "power/battery.hpp"
#include "scenario/rig.hpp"

int main(int argc, char** argv) {
  sprintcon::reject_arguments_or_exit(argc, argv);
  using namespace sprintcon;

  const double deadlines_min[] = {9.0, 12.0, 15.0};
  const scenario::Policy policies[] = {
      scenario::Policy::kSprintCon, scenario::Policy::kSgctV1,
      scenario::Policy::kSgctV2, scenario::Policy::kSgct};

  struct Cell {
    metrics::RunSummary summary;
  };
  std::vector<std::vector<Cell>> grid;

  for (double dl : deadlines_min) {
    std::vector<Cell> row;
    for (auto policy : policies) {
      scenario::RigConfig config;
      config.policy = policy;
      config.batch_deadline_s = dl * 60.0;
      row.push_back({scenario::run_policy(config)});
    }
    grid.push_back(std::move(row));
  }

  std::cout << "Figure 8(a) - normalized time use (worst completion / "
               "deadline; 1.0 = finishes exactly at the deadline)\n\n";
  Table a({"deadline", "SprintCon", "SGCT-V1", "SGCT-V2", "SGCT",
           "deadlines met"});
  for (std::size_t d = 0; d < grid.size(); ++d) {
    bool all_met = true;
    std::vector<std::string> row{format_fixed(deadlines_min[d], 0) + " min"};
    for (const Cell& c : grid[d]) {
      row.push_back(format_fixed(c.summary.normalized_time_use, 2));
      all_met = all_met && c.summary.all_deadlines_met;
    }
    row.push_back(all_met ? "all" : "NOT all");
    a.add_row(std::move(row));
  }
  std::cout << a.to_string();
  std::cout << "(paper shape: SprintCon closest to 1.0; baselines finish "
               "early)\n\n";

  std::cout << "Figure 8(b) - UPS depth of discharge and battery life\n\n";
  Table b({"deadline", "policy", "DoD", "LFP cycles", "battery life @10/day"});
  for (std::size_t d = 0; d < grid.size(); ++d) {
    for (std::size_t p = 0; p < grid[d].size(); ++p) {
      const auto& s = grid[d][p].summary;
      b.add_row({format_fixed(deadlines_min[d], 0) + " min", s.label,
                 format_percent(s.depth_of_discharge),
                 format_fixed(s.battery_cycle_life, 0),
                 format_fixed(s.battery_lifetime_days / 365.0, 1) + " yr"});
    }
  }
  std::cout << b.to_string();

  const auto& ours12 = grid[1][0].summary;
  const auto& v1_12 = grid[1][1].summary;
  std::cout << "\npaper anchor @12 min: SprintCon DoD 17% (measured "
            << format_percent(ours12.depth_of_discharge) << "), SGCT-V1 31% "
            << "(measured " << format_percent(v1_12.depth_of_discharge)
            << ")\n";
  return 0;
}
