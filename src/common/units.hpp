// Unit conventions and conversion helpers.
//
// All quantities in SprintCon are SI doubles with the unit encoded in the
// identifier name:
//   *_w      watts               *_j      joules
//   *_wh     watt-hours          *_s      seconds
//   *_hz     hertz               f / freq normalized frequency in [0, 1]
//
// Normalized frequency maps the physical DVFS range of the evaluation
// platform (400 MHz .. 2.0 GHz) onto [0.2, 1.0]: f_norm = f_hz / f_peak_hz.
// The controller mathematics are unit-agnostic; these helpers keep the
// boundaries honest.
//
// For public APIs, use a role-suffixed double (`dt_s`, `budget_w`). A
// bare `double seconds` / `double watts` parameter names the unit but not
// the role, and silently accepts any double — scripts/lint_invariants.py
// (rule `raw-unit`) rejects such parameters everywhere outside this
// header, which is the one legal raw-double conversion boundary.
#pragma once

namespace sprintcon::units {

inline constexpr double kSecondsPerHour = 3600.0;

/// Convert watt-hours to joules (1 Wh = 3600 J).
constexpr double wh_to_joules(double wh) noexcept { return wh * kSecondsPerHour; }

/// Convert joules to watt-hours.
constexpr double joules_to_wh(double j) noexcept { return j / kSecondsPerHour; }

}  // namespace sprintcon::units
