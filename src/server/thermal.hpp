// Per-core thermal model.
//
// Computational sprinting was originally a *thermal* technique (Raghavan
// et al. [1]): chips can exceed their sustainable power as long as the
// thermal capacitance absorbs the burst. We model each core as a
// first-order thermal RC circuit,
//
//     dT/dt = (T_ss - T) / tau,   T_ss = T_ambient + R_th * P_core,
//
// which gives the exponential heat-up/cool-down of the real die. Server
// integrates it for all its cores in one SoA kernel, and the server power
// controller uses `Server::core_throttled(i)` as a per-core guard: a core
// that exceeds its throttle temperature has its frequency ceiling backed
// off until it cools (Section V's Eq. 9 bounds become dynamic).
//
// With the default calibration, peak sustained power keeps the core below
// the throttle point — the guard only engages with degraded cooling
// (higher R_th), mirroring how sprinting hardware behaves when fans fail.
#pragma once

namespace sprintcon::server {

/// Static thermal calibration of one core.
struct ThermalSpec {
  double ambient_c = 25.0;
  /// Junction-to-ambient thermal resistance (deg C per watt).
  double resistance_c_per_w = 2.2;
  /// Thermal RC time constant (seconds).
  double time_constant_s = 12.0;
  /// Temperature at which the DVFS guard backs the core off.
  double throttle_temp_c = 85.0;
  /// Hardware-critical temperature (diagnostics only; the guard should
  /// never let a core get here).
  double critical_temp_c = 95.0;

  void validate() const;
};

}  // namespace sprintcon::server
