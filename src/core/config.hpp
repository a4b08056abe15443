// SprintCon configuration: every knob of the mechanism that a run turns.
// Values the paper fixes once are named constants next to the code that
// reads them.
#pragma once

#include "control/mpc.hpp"

namespace sprintcon::core {

/// How the power load allocator schedules CB overload over the burst
/// (Section IV-A): short bursts sprint unconstrained, medium bursts
/// overload continuously, long bursts overload periodically so the breaker
/// can recover between windows.
enum class OverloadPolicy {
  kUnconstrained,  ///< burst < ~1 min: no CB power target
  kContinuous,     ///< 5-10 min: overload for the whole burst
  kPeriodic,       ///< >= ~15 min: overload/recover cycles (the default)
};

/// Full configuration of a SprintCon instance.
struct SprintConfig {
  // --- power infrastructure ---------------------------------------------
  double cb_rated_w = 3200.0;      ///< breaker rated capacity
  double cb_overload_degree = 1.25;  ///< overload target during windows
  double cb_overload_duration_s = 150.0;
  double cb_recovery_duration_s = 300.0;

  // --- sprint shape -------------------------------------------------------
  double burst_duration_s = 900.0;  ///< T_burst (15 minutes)
  /// Bursts at least this long overload periodically (overload_policy()).
  double long_burst_s = 900.0;
  /// Phase offset of the periodic overload schedule. Racks sharing a
  /// facility feed can stagger their overload windows so the aggregate
  /// draw stays flat (see bench/ablation_stagger).
  double schedule_offset_s = 0.0;

  // --- allocator ----------------------------------------------------------
  double allocator_period_s = 30.0;  ///< P_batch adaptation period

  // --- controllers ---------------------------------------------------------
  /// Server power controller tuning; mpc.control_period_s is the period of
  /// the batch loop (MPC, its PI fallback and the baselines' loops alike).
  control::MpcConfig mpc;
  /// Online gain adaptation: estimate the true dP/df of the plant via
  /// recursive least squares and blend it into the MPC model. Off by
  /// default (the paper's controller uses the fixed linear model and lets
  /// feedback absorb the error).
  bool adaptive_gain = false;
  /// Disable the UPS power controller entirely (ablation: the breaker
  /// must then absorb every interactive fluctuation above P_cb itself —
  /// the failure mode the paper's second controller exists to prevent).
  bool ups_controller_enabled = true;
  /// Charger rating for refilling the UPS between sprints (from CB rated
  /// headroom only — recharging never overloads the breaker). 0 disables;
  /// periodic daily sprinting (Section VII-D's 10-per-day cadence)
  /// requires it.
  double recharge_power_w = 300.0;

  /// Pick the overload policy for a burst duration.
  OverloadPolicy overload_policy() const noexcept;

  /// CB power target during overload windows.
  double cb_overload_w() const noexcept {
    return cb_rated_w * cb_overload_degree;
  }

  /// Validate all invariants; throws InvalidArgumentError.
  void validate() const;
};

/// The paper's evaluation configuration (Section VI-A).
SprintConfig paper_config();

}  // namespace sprintcon::core
