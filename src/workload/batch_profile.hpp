// Batch workload profiles.
//
// The paper records traces from SPEC CPU2006 (CINT 400.perlbench,
// 401.bzip2, 403.gcc, 429.mcf; CFP 433.milc, 444.namd, 447.dealII,
// 450.soplex). We do not ship SPEC; instead each benchmark becomes a
// profile with a calibrated compute-boundedness (mu) and nominal
// utilization that reproduce the *behavioural* range the controller sees
// through the progress model. The memory-bound
// outliers (429.mcf, 433.milc) and the compute-bound ones (444.namd) match
// their well-known characters.
//
// The six sprint kernels of Figure 1 (from Raghavan et al.'s testbed:
// sobel, disparity, segment, kmeans, feature, texture) are provided as a
// second profile set for the per-watt speedup analysis.
#pragma once

#include <span>
#include <string>
#include <vector>

namespace sprintcon::workload {

/// Static character of one batch benchmark.
struct BatchProfile {
  std::string name;
  /// Compute-boundedness mu of the progress model (1 = pure CPU).
  double compute_fraction = 0.9;
  /// Core utilization while the job runs (batch jobs keep their core busy).
  double utilization = 0.95;
  /// Nominal work in seconds-at-peak-frequency for one execution.
  double nominal_work_s = 450.0;
};

/// The eight SPEC-CPU2006-like profiles used in the evaluation rig.
std::span<const BatchProfile> spec2006_profiles();

/// Look up a SPEC-like profile by name; throws InvalidArgumentError.
const BatchProfile& spec2006_profile(std::string_view name);

/// The six sprint kernels used for the Figure 1 per-watt speedup analysis.
std::span<const BatchProfile> sprint_kernel_profiles();

}  // namespace sprintcon::workload
