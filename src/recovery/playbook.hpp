// Declarative remediation playbooks (DESIGN.md §10).
//
// A Playbook maps HealthMonitor rule names to escalation ladders. Each
// ladder rung is one remediation action with a bounded retry budget and
// exponential backoff (measured in health checks, the only clock the
// recovery engine has). The RecoveryManager walks a ladder upward while
// the triggering rule stays degraded and back down, hysteretically, once
// it recovers — see recovery.hpp for the engine semantics.
//
// Playbooks are plain data: validated at attach time, never mutated by
// the engine, and safe to share across rigs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sprintcon::recovery {

/// Remediation actions, ordered roughly by blast radius. kResetActuator
/// is an impulse (re-issued on every retry); the rest are modal — engaged
/// on entering the rung, released when de-escalating out of it.
enum class ActionKind : std::uint8_t {
  kResetActuator,    ///< L0: re-issue/reset the faulted actuator
  kPidFallback,      ///< L1: degrade batch control MPC -> PI loop
  kConservativeCap,  ///< L1: stop overloading; bid everything under P_cb
  kRebaseline,       ///< accept a permanent derating (param = margin)
  kQuarantine,       ///< L2: end sprint, pin safe freq, shed the load
};

/// One rung of an escalation ladder.
struct RecoveryStep {
  ActionKind action = ActionKind::kResetActuator;
  /// Applications of this rung before escalating (>= 1). For impulse
  /// actions each retry re-applies; for modal actions the retries are
  /// dwell time — the rung holds while the rule is given a chance to
  /// recover.
  int max_retries = 3;
  /// Health checks between retries; doubles every retry (1, 2, 4, ...)
  /// up to max_backoff_checks.
  int backoff_checks = 1;
  int max_backoff_checks = 8;
  /// kRebaseline only: margin in (0, 1) applied to the current reading
  /// when re-rating the rule threshold (HealthMonitor::rebaseline).
  double param = 0.0;

  void validate() const;
};

/// Ladder for one health rule. `trigger` names the HealthMonitor rule
/// whose degraded/recovered transitions drive the ladder.
struct RecoveryRule {
  std::string trigger;
  std::vector<RecoveryStep> ladder;  ///< L0 first
  /// Healthy polls (after the rule recovered) before stepping down one
  /// rung. Applied per rung, so a full unwind from rung k takes
  /// (k + 1) * deescalate_after polls — the hysteresis that stops a
  /// marginal fault from flapping the ladder.
  int deescalate_after = 2;

  void validate() const;
};

struct Playbook {
  std::vector<RecoveryRule> rules;

  void validate() const;
  const RecoveryRule* find(std::string_view trigger) const noexcept;

  /// The default playbook matched to the Rig's default health rules:
  ///   dvfs-divergence          reset -> pid -> cap -> quarantine
  ///   meter-divergence         reset -> cap -> quarantine
  ///   meter-stuck              reset -> cap -> quarantine
  ///   ups-capacity-fade        reset -> cap -> rebaseline(0.95)
  ///   ups-discharge-shortfall  reset -> cap -> quarantine
  /// latency-slo stays unremediated by design: high latency is the
  /// *consequence* of throttling, and every containment rung only
  /// throttles harder. Operators watch it; the ladder must not chase it.
  static Playbook defaults();
};

}  // namespace sprintcon::recovery
