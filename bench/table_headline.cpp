// Headline numbers (abstract / Section VII): SprintCon achieves 6-56%
// better computing performance and up to 87% less demand of energy
// storage than the state-of-the-art baselines.
//
// This harness regenerates both ranges from the canonical 15-minute rig.
#include <iostream>
#include <vector>

#include "common/table.hpp"
#include "metrics/summary.hpp"
#include "scenario/rig.hpp"

int main() {
  using namespace sprintcon;

  std::vector<metrics::RunSummary> runs;
  for (auto policy :
       {scenario::Policy::kSprintCon, scenario::Policy::kSgct,
        scenario::Policy::kSgctV1, scenario::Policy::kSgctV2}) {
    scenario::RigConfig config;
    config.policy = policy;
    runs.push_back(scenario::run_policy(config));
  }

  std::cout << "Headline comparison (15-minute sprint, 12-minute "
               "deadlines)\n\n";
  metrics::print_summaries(std::cout, runs);

  const auto& ours = runs.front();
  double best_improve = 1e9, worst_improve = -1e9, best_storage = -1e9;
  Table table({"baseline", "capacity improvement", "storage reduction"});
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const double improve = metrics::capacity_improvement(
        ours.avg_freq_interactive, runs[i].avg_freq_interactive);
    const double storage = metrics::storage_reduction(
        ours.ups_discharged_wh, runs[i].ups_discharged_wh);
    best_improve = std::min(best_improve, improve);
    worst_improve = std::max(worst_improve, improve);
    best_storage = std::max(best_storage, storage);
    table.add_row({runs[i].label, format_percent(improve),
                   format_percent(storage)});
  }
  std::cout << '\n' << table.to_string();

  std::cout << "\nmeasured headline: " << format_percent(best_improve)
            << " - " << format_percent(worst_improve)
            << " better computing performance (paper: 6% - 56%), up to "
            << format_percent(best_storage)
            << " less energy-storage demand (paper: up to 87%)\n";
  return 0;
}
