#include "power/circuit_breaker.hpp"

#include <algorithm>
#include <cmath>

#include "common/validation.hpp"

namespace sprintcon::power {

namespace {
// An open breaker re-closes once its thermal state has decayed to 5% of
// the trip threshold (the end of the "recovery" window).
constexpr double kRecloseFraction = 0.05;
}  // namespace

CircuitBreaker::CircuitBreaker(double rated_power_w, TripCurve curve)
    : rated_power_w_(rated_power_w), curve_(curve) {
  SPRINTCON_EXPECTS(rated_power_w > 0.0, "rated power must be positive");
}

void CircuitBreaker::set_trip_derate(double factor) {
  SPRINTCON_EXPECTS(factor > 0.0 && factor <= 1.0,
                    "trip derate must be in (0, 1]");
  trip_derate_ = factor;
}

double CircuitBreaker::effective_threshold() const noexcept {
  return curve_.trip_threshold() * trip_derate_;
}

double CircuitBreaker::deliver(double power_w, double dt_s) {
  SPRINTCON_EXPECTS(power_w >= 0.0, "delivered power must be non-negative");
  SPRINTCON_EXPECTS(dt_s > 0.0, "dt must be positive");
  elapsed_s_ += dt_s;

  if (open_) {
    // Cooling while open; re-close when recovered.
    theta_ *= cooling_factor(dt_s);
    if (ready_to_close()) {
      open_ = false;
      if (obs_ != nullptr) {
        obs_->events().emit(elapsed_s_, obs::EventType::kCbReclose, "cooled",
                            {{"stress", thermal_stress()}});
      }
    }
    if (open_) return 0.0;
    // Fall through: deliver in the same tick it re-closes, so a recovered
    // breaker picks the load back up without a dead tick.
  }

  const double overload = power_w / rated_power_w_;
  if (overload > 1.0) {
    theta_ += curve_.heating_rate(overload) * dt_s;
    if (!overloaded_) {
      overloaded_ = true;
      if (obs_ != nullptr) {
        obs_->events().emit(elapsed_s_, obs::EventType::kCbOverloadEnter,
                            "above-rated",
                            {{"power_w", power_w},
                             {"stress", thermal_stress()},
                             {"margin", 1.0 - thermal_stress()}});
      }
    }
  } else {
    theta_ *= cooling_factor(dt_s);
    if (overloaded_) {
      overloaded_ = false;
      if (obs_ != nullptr) {
        obs_->events().emit(elapsed_s_, obs::EventType::kCbOverloadExit,
                            "at-or-below-rated",
                            {{"stress", thermal_stress()},
                             {"margin", 1.0 - thermal_stress()}});
      }
    }
  }

  if (theta_ >= effective_threshold()) {
    open_ = true;
    ++trip_count_;
    overloaded_ = false;  // the trip ends the overload episode
    if (obs_ != nullptr) {
      obs_->events().emit(elapsed_s_, obs::EventType::kCbTrip,
                          "thermal-threshold",
                          {{"power_w", power_w},
                           {"trip_count", static_cast<double>(trip_count_)}});
    }
    return 0.0;  // trips during this interval; conservatively deliver none
  }
  return power_w;
}

double CircuitBreaker::cooling_factor(double dt_s) noexcept {
  if (dt_s != cached_dt_s_) {
    cooling_factor_ = std::exp(-dt_s / curve_.cooling_tau_s());
    cached_dt_s_ = dt_s;
  }
  return cooling_factor_;
}

double CircuitBreaker::thermal_stress() const noexcept {
  return std::clamp(theta_ / effective_threshold(), 0.0, 1.0);
}

bool CircuitBreaker::near_trip(double margin) const noexcept {
  return thermal_stress() >= margin;
}

bool CircuitBreaker::ready_to_close() const noexcept {
  return theta_ <= kRecloseFraction * effective_threshold();
}

}  // namespace sprintcon::power
