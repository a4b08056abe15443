// Closed-loop recovery engine (DESIGN.md §10).
//
// The RecoveryManager turns HealthMonitor alerts into remediation. It is
// polled right after every health check (same Rig::step cadence), so
// its only clock is the health-check count — which makes every decision a
// pure function of the simulated trajectory and keeps sharded facility
// runs bit-identical to sequential ones.
//
// Per triggering rule the engine runs a small incident state machine:
//
//   healthy --degraded--> rung 0 (apply, retry with exponential backoff)
//      ^                    | retries exhausted & still degraded
//      |                    v
//      |                  rung 1 ... rung N-1 (terminal: hold)
//      | rule recovered & deescalate_after healthy polls per rung
//      +---- unwind one rung at a time; incident closes below rung 0
//
// Escalation *adds* containment (modal actions stay engaged underneath);
// de-escalation releases one rung at a time so a marginal fault cannot
// flap between full sprinting and quarantine. When the incident closes,
// the time from first degradation to full unwind is recorded as MTTR.
//
// Actions reach the plant through the RecoveryTarget interface — the Rig
// adapts it onto the SprintConController; unit tests mock it.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "obs/health.hpp"
#include "obs/sink.hpp"
#include "recovery/playbook.hpp"

namespace sprintcon::recovery {

/// What the engine can do to the system under recovery. Modal actions
/// come in engage/release pairs and are reference-counted by the caller
/// if several triggers share a rung kind; the engine guarantees each
/// engage is matched by exactly one release.
class RecoveryTarget {
 public:
  virtual ~RecoveryTarget() = default;

  /// L0 impulse: re-issue/reset the actuator behind `trigger` (e.g.
  /// re-write the last DVFS command, power-cycle a meter). Simulated
  /// hardware may treat some resets as no-ops; the engine only promises
  /// bounded attempts before escalating.
  virtual void reset_actuator(std::string_view trigger) = 0;

  virtual void engage_pid_fallback() = 0;
  virtual void release_pid_fallback() = 0;
  virtual void engage_conservative_cap() = 0;
  virtual void release_conservative_cap() = 0;
  virtual void engage_quarantine() = 0;
  virtual void release_quarantine() = 0;

  /// Accept a permanent derating: re-rate the triggering rule so it can
  /// recover (HealthMonitor::rebaseline). Returns false when the rule
  /// cannot be re-rated — the engine then just holds the rung.
  virtual bool rebaseline(std::string_view trigger, double margin) = 0;
};

class RecoveryManager {
 public:
  /// @param sink     events + metrics destination (required)
  /// @param monitor  health monitor whose rules trigger the ladders;
  ///                 must be checked before every poll()
  /// @param target   the system under recovery
  /// @param playbook validated at attach; triggers that match no monitor
  ///                 rule are inert (kept for forward compatibility)
  RecoveryManager(obs::ObsSink* sink, obs::HealthMonitor* monitor,
                  RecoveryTarget* target, Playbook playbook);

  /// One engine step; call immediately after monitor->check(now_s).
  void poll(double now_s);

  /// Incidents currently open (rule degraded or ladder still unwinding).
  std::size_t active_incidents() const noexcept;
  /// True while any trigger holds a quarantine rung.
  bool quarantined() const noexcept;
  /// Total remediation actions applied.
  std::uint64_t actions_taken() const noexcept { return actions_; }
  /// Current rung of the named trigger (-1 = no rung engaged).
  int level(std::string_view trigger) const noexcept;
  /// MTTR of the most recently closed incident (< 0 before the first).
  double last_mttr_s() const noexcept { return last_mttr_s_; }
  /// Incidents fully resolved (degradation -> complete unwind).
  std::uint64_t incidents_resolved() const noexcept { return resolved_; }

 private:
  struct RuleState {
    const char* cause = nullptr;  ///< monitor's static name (event cause)
    bool incident = false;
    int rung = -1;      ///< engaged ladder index
    int retries = 0;    ///< applications done at the current rung
    int cooldown = 0;   ///< polls until the next retry (backoff)
    int ok_streak = 0;  ///< healthy polls counted toward de-escalation
    double t_degraded = 0.0;
  };

  void apply_action(const RecoveryRule& rule, RuleState& state,
                    double now_s);
  void release_action(const RecoveryRule& rule, RuleState& state);
  void update_gauges();

  obs::ObsSink* sink_;
  obs::HealthMonitor* monitor_;
  RecoveryTarget* target_;
  Playbook playbook_;
  std::vector<RuleState> states_;  ///< parallel to playbook_.rules
  std::uint64_t actions_ = 0;
  std::uint64_t resolved_ = 0;
  double last_mttr_s_ = -1.0;
};

}  // namespace sprintcon::recovery
