#include "recovery/playbook.hpp"

#include "common/validation.hpp"

namespace sprintcon::recovery {

void RecoveryStep::validate() const {
  SPRINTCON_EXPECTS(max_retries >= 1, "recovery step needs >= 1 retry");
  SPRINTCON_EXPECTS(backoff_checks >= 1, "backoff must be >= 1 check");
  SPRINTCON_EXPECTS(max_backoff_checks >= backoff_checks,
                    "backoff cap below the initial backoff");
  SPRINTCON_EXPECTS(
      action != ActionKind::kRebaseline || (param > 0.0 && param < 1.0),
      "rebaseline margin must be in (0, 1)");
}

void RecoveryRule::validate() const {
  SPRINTCON_EXPECTS(!trigger.empty(), "recovery rule needs a trigger");
  SPRINTCON_EXPECTS(!ladder.empty(), "recovery rule needs a ladder");
  SPRINTCON_EXPECTS(deescalate_after >= 1,
                    "de-escalation hysteresis must be >= 1 poll");
  for (const RecoveryStep& step : ladder) step.validate();
}

void Playbook::validate() const {
  for (const RecoveryRule& rule : rules) {
    rule.validate();
    // Duplicate triggers would race each other's mode transitions.
    std::size_t hits = 0;
    for (const RecoveryRule& other : rules) {
      if (other.trigger == rule.trigger) ++hits;
    }
    SPRINTCON_EXPECTS(hits == 1, "duplicate trigger in playbook");
  }
}

const RecoveryRule* Playbook::find(std::string_view trigger) const noexcept {
  for (const RecoveryRule& rule : rules) {
    if (rule.trigger == trigger) return &rule;
  }
  return nullptr;
}

Playbook Playbook::defaults() {
  const RecoveryStep reset{.action = ActionKind::kResetActuator,
                           .max_retries = 3};
  const RecoveryStep pid{.action = ActionKind::kPidFallback,
                         .max_retries = 2,
                         .backoff_checks = 2};
  const RecoveryStep cap{.action = ActionKind::kConservativeCap,
                         .max_retries = 2,
                         .backoff_checks = 2};
  const RecoveryStep quarantine{.action = ActionKind::kQuarantine,
                                .max_retries = 1};
  const RecoveryStep rebaseline{.action = ActionKind::kRebaseline,
                                .max_retries = 1,
                                .param = 0.95};
  Playbook book;
  book.rules = {
      {.trigger = "dvfs-divergence", .ladder = {reset, pid, cap, quarantine}},
      {.trigger = "meter-divergence", .ladder = {reset, cap, quarantine}},
      {.trigger = "meter-stuck", .ladder = {reset, cap, quarantine}},
      {.trigger = "ups-capacity-fade", .ladder = {reset, cap, rebaseline}},
      {.trigger = "ups-discharge-shortfall",
       .ladder = {reset, cap, quarantine}},
  };
  return book;
}

}  // namespace sprintcon::recovery
