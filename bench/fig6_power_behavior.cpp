// Figure 6: power behaviour of SprintCon vs. SGCT-V1 vs. SGCT-V2.
//
// Expected shape (paper): SprintCon rides the CB budget square wave — CB
// power pinned at 4.0 kW during overload windows and 3.2 kW during
// recovery — with the UPS covering only the fluctuating interactive gap,
// so the *total* curve fluctuates. V1/V2 instead hold the *total* flat at
// the budget, with the UPS and CB providing sprinting power in turn.
#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "scenario/rig.hpp"

namespace {

void print_run(const char* title, sprintcon::scenario::Rig& rig) {
  using namespace sprintcon;
  rig.run();
  const auto& rec = rig.recorder();
  std::cout << title << "\n";
  Table table({"t (s)", "CB budget", "CB actual", "UPS", "Total"});
  for (std::size_t i = 0; i < rec.series("cb_power_w").size(); i += 30) {
    table.add_row({format_fixed(rec.series("cb_power_w").time_at(i), 0),
                   format_fixed(rec.series("cb_budget_w")[i], 0),
                   format_fixed(rec.series("cb_power_w")[i], 0),
                   format_fixed(rec.series("ups_power_w")[i], 0),
                   format_fixed(rec.series("total_power_w")[i], 0)});
  }
  std::cout << table.to_string();

  const auto summary = rig.summary();
  std::cout << "  CB energy " << format_fixed(summary.cb_energy_wh, 0)
            << " Wh, UPS energy " << format_fixed(summary.ups_discharged_wh, 0)
            << " Wh, total-power stddev "
            << format_fixed(rec.series("total_power_w").stddev(), 0)
            << " W\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = sprintcon::parse_bench_options_or_exit(argc, argv);
  using namespace sprintcon;

  std::cout << "Figure 6 - power behaviour comparison\n\n";
  for (auto [policy, title] :
       {std::pair{scenario::Policy::kSprintCon, "(a) SprintCon"},
        std::pair{scenario::Policy::kSgctV1, "(b) SGCT-V1"},
        std::pair{scenario::Policy::kSgctV2, "(c) SGCT-V2"}}) {
    scenario::RigConfig config;
    config.policy = policy;
    scenario::Rig rig(config);
    print_run(title, rig);
    maybe_write_csv(options,
                    std::string("fig6_") + scenario::to_string(policy),
                    rig.recorder().all_series());
  }

  std::cout << "expected shape: SprintCon's CB-actual tracks the square-wave "
               "budget and its total fluctuates with interactive load;\n"
               "V1/V2 keep the total nearly flat at 4.0 kW and lean on the "
               "UPS only while the breaker recovers.\n";
  return 0;
}
