// Deterministic, scripted fault injection: the fault taxonomy and the
// FaultPlan that schedules it (DESIGN.md §9).
//
// A FaultSpec is one timed fault: a kind, an activation window
// [start_s, start_s + duration_s), and kind-specific parameters. A
// FaultPlan is an ordered list of specs. A scenario file describes one
// spec per `fault` line (src/scenario/spec.hpp), in the grammar of
// FaultSpec::parse_line:
//
//     fault meter_noise    start=100 duration=200 magnitude=0.05
//     fault utility_outage start=400 duration=60
//     fault ups_fade       start=0   magnitude=0.25
//
// Determinism contract: a FaultPlan never reads wall-clock time or global
// RNG state. All randomness used by the injectors derives from the
// injector's explicit seed, drawn in fixed tick order — identical
// (plan, seed, rig config) therefore reproduces bit-identical runs, which
// tests/fault_test.cpp asserts.
#pragma once

#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace sprintcon::fault {

/// Every fault family the injector can produce. Extend here, in
/// to_string/parse, and in FaultInjector (see DESIGN.md §9 for the
/// taxonomy and each family's injection point).
enum class FaultKind {
  // --- sensing (the controller's power meter) ----------------------------
  kMeterNoise,    ///< gaussian noise on the measured rack power
  kMeterSpike,    ///< periodic additive spikes on the measurement
  kMeterDropout,  ///< meter freezes at its last pre-fault reading
  kMeterDelay,    ///< controller sees the measurement `magnitude` s late
  // --- actuation (DVFS) --------------------------------------------------
  kDvfsStuck,     ///< frequency writes ignored (actuator latched)
  kDvfsLag,       ///< writes settle with a first-order lag (tau = magnitude)
  // --- control plane -----------------------------------------------------
  kControlDrop,   ///< controller ticks skipped with probability `magnitude`
  // --- energy storage ----------------------------------------------------
  kUpsFade,       ///< capacity fade: store keeps `magnitude` of capacity
  kDischargeFail, ///< discharge circuit delivers only `magnitude` of command
  // --- breaker / utility -------------------------------------------------
  kCbDrift,       ///< trip threshold derated to `magnitude` (aged breaker)
  kUtilityOutage, ///< primary feed lost for the window (inline UPS carries)
};

/// Stable identifier used by the `fault` line and the obs event `cause`
/// (a static string, safe to store in an Event).
const char* to_string(FaultKind kind) noexcept;

/// Inverse of to_string; throws InvalidArgumentError on unknown names.
FaultKind parse_fault_kind(std::string_view name);

/// Shortest round-trippable decimal form ("%.17g", "inf"/"-inf") used by
/// the scenario text format so parse(serialize(x)) == x bitwise.
std::string format_plan_double(double v);

/// One scheduled fault.
struct FaultSpec {
  FaultKind kind = FaultKind::kMeterNoise;
  double start_s = 0.0;
  /// Active window length; infinity = until the end of the run.
  double duration_s = std::numeric_limits<double>::infinity();
  /// Kind-specific strength (see FaultKind comments): noise stddev or
  /// spike height as a fraction of the reading, delay seconds, lag time
  /// constant, drop probability, capacity/derate/gain fraction.
  double magnitude = 0.0;
  /// Spike spacing in seconds (kMeterSpike only).
  double period_s = 0.0;

  double end_s() const noexcept { return start_s + duration_s; }
  bool active(double now_s) const noexcept {
    return now_s >= start_s && now_s < end_s();
  }

  /// One `fault` line's body (no keyword, no newline); parse_line()
  /// round-trips it.
  std::string to_line() const;
  /// Parse one `fault` line's body ("<kind> key=value ..."; no comment
  /// handling) and validate it. Throws InvalidArgumentError without any
  /// line-number context; the scenario loader wraps the message with its
  /// own file:line.
  static FaultSpec parse_line(std::string_view line);
  /// Validate ranges for the kind; throws InvalidArgumentError.
  void validate() const;

  bool operator==(const FaultSpec&) const = default;
};

/// An ordered list of scheduled faults.
struct FaultPlan {
  std::vector<FaultSpec> faults;

  bool empty() const noexcept { return faults.empty(); }
  void validate() const;

  bool operator==(const FaultPlan&) const = default;
};

}  // namespace sprintcon::fault
