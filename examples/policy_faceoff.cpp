// Face-off: run the same 15-minute workload burst under SprintCon and all
// three SGCT baselines and compare the paper's headline metrics
// (computing capacity, storage demand, safety).
//
//   ./build/examples/policy_faceoff
#include <iostream>
#include <vector>

#include "metrics/summary.hpp"
#include "scenario/rig.hpp"

int main() {
  using namespace sprintcon;

  std::vector<metrics::RunSummary> runs;
  for (scenario::Policy policy :
       {scenario::Policy::kSprintCon, scenario::Policy::kSgct,
        scenario::Policy::kSgctV1, scenario::Policy::kSgctV2,
        scenario::Policy::kPowerCap}) {
    scenario::RigConfig config;
    config.policy = policy;
    std::cout << "running " << scenario::to_string(policy) << "...\n";
    runs.push_back(scenario::run_policy(config));
  }

  std::cout << '\n';
  metrics::print_summaries(std::cout, runs);

  const auto& ours = runs.front();
  std::cout << "\ninteractive request latency (rack-mean p95, M/M/1 model):\n";
  for (const auto& run : runs) {
    std::cout << "  " << run.label << ": " << run.mean_p95_latency_ms
              << " ms\n";
  }

  std::cout << "\nSprintCon vs each baseline:\n";
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const auto& theirs = runs[i];
    std::cout << "  vs " << theirs.label << ": interactive capacity "
              << metrics::capacity_improvement(ours.avg_freq_interactive,
                                               theirs.avg_freq_interactive) *
                     100.0
              << "% better, storage demand ";
    // A baseline that never discharged (PowerCap) leaves no storage
    // demand to reduce.
    if (theirs.ups_discharged_wh > 0.0) {
      std::cout << metrics::storage_reduction(ours.ups_discharged_wh,
                                              theirs.ups_discharged_wh) *
                       100.0
                << "% lower\n";
    } else {
      std::cout << "n/a (no UPS discharge)\n";
    }
  }
  return 0;
}
