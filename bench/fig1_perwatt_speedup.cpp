// Figure 1: per-watt speedup vs. processor frequency for six sprint
// kernels (after Raghavan et al.'s testbed analysis).
//
// Per-watt speedup = (speedup relative to peak) / (sprinting power
// relative to peak). Sprinting power is the *dynamic* (additional) power;
// the cubic frequency term and the memory-bound plateau of each kernel
// make the ratio fall as frequency rises — the reason SprintCon prefers
// low-power, long-duration sprints.
#include <iostream>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "server/power_model.hpp"
#include "workload/batch_profile.hpp"
#include "workload/progress_model.hpp"

int main(int argc, char** argv) {
  sprintcon::reject_arguments_or_exit(argc, argv);
  using namespace sprintcon;

  const server::MeasurementPowerModel power(server::paper_platform());
  const auto kernels = workload::sprint_kernel_profiles();

  std::cout << "Figure 1 - per-watt speedup vs. normalized frequency\n"
            << "(paper shape: decreasing with frequency for all six "
               "workloads)\n\n";

  std::vector<std::string> cols{"freq"};
  for (const auto& k : kernels) cols.push_back(k.name);
  Table table(std::move(cols));

  for (double f = 0.2; f <= 1.001; f += 0.1) {
    std::vector<std::string> row{format_fixed(f, 1)};
    for (const auto& k : kernels) {
      const workload::ProgressModel model(k.compute_fraction);
      const double speedup = model.rate(f) / model.rate(1.0);
      const double rel_power = power.core_dynamic_w(f, k.utilization) /
                               power.core_dynamic_w(1.0, k.utilization);
      row.push_back(format_fixed(speedup / rel_power, 3));
    }
    table.add_row(std::move(row));
  }
  std::cout << table.to_string();

  // Verify the paper's qualitative claim programmatically.
  bool monotone = true;
  for (const auto& k : kernels) {
    const workload::ProgressModel model(k.compute_fraction);
    double prev = 1e9;
    for (double f = 0.3; f <= 1.001; f += 0.1) {
      const double v = (model.rate(f) / model.rate(1.0)) /
                       (power.core_dynamic_w(f, k.utilization) /
                        power.core_dynamic_w(1.0, k.utilization));
      if (v > prev + 1e-9) monotone = false;
      prev = v;
    }
  }
  std::cout << "\nper-watt speedup decreasing in frequency for all kernels: "
            << (monotone ? "yes (matches paper)" : "NO") << '\n';
  return 0;
}
