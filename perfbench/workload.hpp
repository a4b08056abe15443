// Benchmark inputs and output checks.
//
// A workload is a scenario file owned by the benchmark plus the run's
// seed; the library sees only the FacilityConfig compiled from it. Every
// rack the facility runs is checked against the safety contract, and its
// recorded channels are folded into a digest that pins the simulation
// bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "metrics/summary.hpp"
#include "scenario/facility.hpp"
#include "sim/recorder.hpp"

namespace perfbench {

namespace scenario = sprintcon::scenario;

/// Spec load + compile: parse `spec_path`, seed it, lower it. The fault
/// seed follows the workload seed (offset so that the default seed 42
/// keeps the shipped scenarios' fault_seed=1729). `observability` opts the
/// racks into their ObsSink, as a scenario runner would after compile().
scenario::FacilityConfig load_workload(const std::string& spec_path,
                                       std::uint64_t seed, bool observability);

/// The RigConfig Facility builds for rack `r` (per-rack seed, stagger
/// offset, fleet services), so a rack can be rebuilt outside the facility.
scenario::RigConfig rack_config(const scenario::FacilityConfig& fc,
                                std::size_t r);

/// FNV-1a over every recorded channel (name, then each sample's bits) in
/// registration order.
std::uint64_t channel_digest(const sprintcon::sim::TraceRecorder& rec);

/// Fold one 64-bit value into a running FNV-1a digest.
std::uint64_t fold_digest(std::uint64_t digest, std::uint64_t value);

inline constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ULL;

/// Empty when the rack met the output contract; otherwise why it failed
/// (a non-finite channel, SOC outside [0, 1], a CB trip, unserved energy).
std::string rack_failure(const sprintcon::sim::TraceRecorder& rec,
                         const sprintcon::metrics::RunSummary& summary);

/// True when every sample of every channel of `a` equals `b`'s bit for bit
/// (same channels, same order, same lengths).
bool channels_identical(const sprintcon::sim::TraceRecorder& a,
                        const sprintcon::sim::TraceRecorder& b);

}  // namespace perfbench
