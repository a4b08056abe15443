#include "core/safety.hpp"

namespace sprintcon::core {

namespace {
// The CB-protect flag re-arms (allowing overload again) once the thermal
// state has decayed well below the engagement margin.
constexpr double kRearmStress = 0.3;
}  // namespace

const char* to_string(SprintState state) noexcept {
  switch (state) {
    case SprintState::kSprinting: return "sprinting";
    case SprintState::kCbProtect: return "cb-protect";
    case SprintState::kUpsConserve: return "ups-conserve";
    case SprintState::kEnded: return "ended";
  }
  return "unknown";
}

void SafetyMonitor::set_obs(obs::ObsSink* sink) {
  obs_ = sink;
  transitions_ =
      sink != nullptr ? &sink->metrics().counter("safety.transitions") : nullptr;
}

SprintState SafetyMonitor::update(const power::CircuitBreaker& breaker,
                                  const power::EnergyStore& battery,
                                  double now_s) {
  if (state_ == SprintState::kEnded) return state_;  // sticky

  // Breaker watch: engage on near-trip (or an actual trip), re-arm only
  // after substantial cooling.
  const bool cb_stressed =
      breaker.open() || breaker.near_trip(kNearTripMargin);
  if (cb_stressed) {
    cb_protect_ = true;
  } else if (cb_protect_ && breaker.thermal_stress() < kRearmStress) {
    cb_protect_ = false;
  }

  // Battery watch: sticky for the rest of the sprint.
  if (battery.nearly_empty(kUpsReserveFraction)) {
    ups_conserve_ = true;
  }

  const SprintState prev = state_;
  if (cb_protect_ && ups_conserve_) {
    state_ = SprintState::kEnded;
  } else if (ups_conserve_) {
    state_ = SprintState::kUpsConserve;
  } else if (cb_protect_) {
    state_ = SprintState::kCbProtect;
  } else {
    state_ = SprintState::kSprinting;
  }

  if (obs_ != nullptr && state_ != prev) {
    // The dominant monitor that forced this transition.
    const char* cb_cause = breaker.open() ? "cb-open" : "cb-near-trip";
    const char* cause = "unknown";
    switch (state_) {
      case SprintState::kSprinting: cause = "cb-cooled"; break;
      case SprintState::kCbProtect: cause = cb_cause; break;
      case SprintState::kUpsConserve: cause = "battery-low"; break;
      case SprintState::kEnded:
        // Whichever monitor fired last completes the pair; from
        // kSprinting both crossed their thresholds on the same tick.
        cause = prev == SprintState::kCbProtect ? "battery-low"
                : prev == SprintState::kUpsConserve ? cb_cause
                                                    : "cb-and-battery";
        break;
    }
    obs_->events().emit(now_s, obs::EventType::kSprintStateChange, cause,
                        {{"from", static_cast<double>(prev)},
                         {"to", static_cast<double>(state_)},
                         {"stress", breaker.thermal_stress()},
                         {"soc", battery.state_of_charge()}});
    transitions_->add();
  }
  return state_;
}

}  // namespace sprintcon::core
