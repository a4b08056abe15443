// Figure 7: frequency behaviour (computing capacity) of SprintCon vs.
// SGCT-V1 vs. SGCT-V2.
//
// Paper averages: SprintCon 1.00 interactive / 0.59 batch;
// SGCT-V1 0.84 / 0.91; SGCT-V2 0.94 / 0.84. The *shape* to reproduce:
// SprintCon pins interactive at peak and lets batch follow the CB budget
// square wave; the game-based baselines split capacity by utilization (V1)
// or interactive-first priority (V2).
#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "scenario/rig.hpp"

int main(int argc, char** argv) {
  const auto options = sprintcon::parse_bench_options_or_exit(argc, argv);
  using namespace sprintcon;

  std::cout << "Figure 7 - frequency behaviour comparison\n\n";

  struct Expected {
    scenario::Policy policy;
    const char* title;
    double paper_inter;
    double paper_batch;
  };
  const Expected cases[] = {
      {scenario::Policy::kSprintCon, "(a) SprintCon", 1.00, 0.59},
      {scenario::Policy::kSgctV1, "(b) SGCT-V1", 0.84, 0.91},
      {scenario::Policy::kSgctV2, "(c) SGCT-V2", 0.94, 0.84},
  };

  Table summary_table({"policy", "f_inter (measured)", "f_inter (paper)",
                       "f_batch (measured)", "f_batch (paper)"});

  for (const Expected& c : cases) {
    scenario::RigConfig config;
    config.policy = c.policy;
    scenario::Rig rig(config);
    rig.run();
    const auto& rec = rig.recorder();

    std::cout << c.title << "\n";
    Table table({"minute", "f_interactive", "f_batch"});
    for (int m = 0; m < 15; ++m) {
      const double t0 = m * 60.0, t1 = t0 + 60.0;
      table.add_row(
          {std::to_string(m + 1),
           format_fixed(rec.series("freq_interactive").mean_between(t0, t1), 2),
           format_fixed(rec.series("freq_batch").mean_between(t0, t1), 2)});
    }
    std::cout << table.to_string() << '\n';

    maybe_write_csv(options, std::string("fig7_") + scenario::to_string(c.policy),
                    rig.recorder().all_series());
    const auto s = rig.summary();
    summary_table.add_row({s.label, format_fixed(s.avg_freq_interactive, 2),
                           format_fixed(c.paper_inter, 2),
                           format_fixed(s.avg_freq_batch, 2),
                           format_fixed(c.paper_batch, 2)});
  }

  std::cout << "summary (paper-vs-measured):\n" << summary_table.to_string();
  std::cout << "\nexpected ordering: interactive SprintCon > V2 > V1; "
               "batch V1 > V2 > SprintCon.\n";
  return 0;
}
