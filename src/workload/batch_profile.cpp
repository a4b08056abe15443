#include "workload/batch_profile.hpp"

#include <array>

#include "common/error.hpp"

namespace sprintcon::workload {

namespace {

// mu values follow the published memory-boundedness ordering of the
// benchmarks: mcf and milc are strongly memory bound, namd is almost pure
// compute, the rest sit in between.
const std::array<BatchProfile, 8> kSpec = {{
    {"400.perlbench", 0.88, 0.97, 430.0},
    {"401.bzip2", 0.82, 0.96, 470.0},
    {"403.gcc", 0.78, 0.94, 420.0},
    {"429.mcf", 0.55, 0.90, 520.0},
    {"433.milc", 0.60, 0.91, 500.0},
    {"444.namd", 0.96, 0.99, 440.0},
    {"447.dealII", 0.85, 0.96, 460.0},
    {"450.soplex", 0.70, 0.93, 480.0},
}};

// Sprint kernels from the Raghavan et al. hardware/software testbed used
// in Figure 1. mu spans the same range so the per-watt speedup curves show
// the paper's spread: memory-bound kernels flatten early.
const std::array<BatchProfile, 6> kSprint = {{
    {"sobel", 0.92, 0.98, 60.0},
    {"disparity", 0.75, 0.95, 90.0},
    {"segment", 0.68, 0.93, 80.0},
    {"kmeans", 0.83, 0.96, 70.0},
    {"feature", 0.88, 0.97, 75.0},
    {"texture", 0.62, 0.92, 85.0},
}};

}  // namespace

std::span<const BatchProfile> spec2006_profiles() { return kSpec; }

const BatchProfile& spec2006_profile(std::string_view name) {
  for (const auto& p : kSpec)
    if (p.name == name) return p;
  throw InvalidArgumentError("unknown SPEC profile: " + std::string(name));
}

std::span<const BatchProfile> sprint_kernel_profiles() { return kSprint; }

}  // namespace sprintcon::workload
