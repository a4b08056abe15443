// Circuit breaker with thermal trip state and recovery.
//
// The breaker accumulates thermal stress while delivering above its rated
// power (TripCurve), trips when the stress crosses the threshold, then
// stays open until the thermal state has decayed enough to re-close.
// SprintCon's safety monitor watches `near_trip()` to stop overloading
// *before* the trip ever happens; the SGCT baseline demonstrates what
// happens when nobody watches.
#pragma once

#include "obs/sink.hpp"
#include "power/trip_curve.hpp"

namespace sprintcon::power {

/// One breaker protecting the rack's primary feed.
class CircuitBreaker {
 public:
  /// @param rated_power_w  rated (continuous) capacity
  /// @param curve          trip characteristic
  CircuitBreaker(double rated_power_w, TripCurve curve);

  double rated_power_w() const noexcept { return rated_power_w_; }
  const TripCurve& curve() const noexcept { return curve_; }

  /// Deliver `power_w` for dt seconds. Updates the thermal state and the
  /// trip/recovery logic. Returns the power actually delivered: equal to
  /// the request while closed, 0 when open.
  double deliver(double power_w, double dt_s);

  /// True while the breaker is open (tripped and not yet re-closed).
  bool open() const noexcept { return open_; }
  /// Total number of trips so far.
  int trip_count() const noexcept { return trip_count_; }

  /// Normalized thermal stress in [0, 1]; 1 = trip threshold.
  double thermal_stress() const noexcept;

  /// True when the stress exceeds `margin` of the trip threshold — the
  /// "close to tripping" signal SprintCon's safety monitor acts on.
  bool near_trip(double margin = 0.9) const noexcept;

  /// True when the breaker, if open, has cooled enough to re-close; the
  /// deliver() loop re-closes automatically at that point.
  bool ready_to_close() const noexcept;

  /// Attach an observability sink (nullptr detaches). deliver() then
  /// emits overload entry/exit, trip and re-close events, timestamped
  /// with the breaker's accumulated delivery time.
  void set_obs(obs::ObsSink* sink) noexcept { obs_ = sink; }

  /// Total simulated seconds deliver() has been called for (the event
  /// timestamp domain; the breaker has no other notion of time).
  double elapsed_s() const noexcept { return elapsed_s_; }

  // --- fault-injection surface (src/fault) --------------------------------
  /// Derate the trip threshold to `factor` of nominal (aged/drifted
  /// breaker: trips earlier). thermal_stress() and near_trip() both see
  /// the derated threshold, so a safety monitor reading the same sensor
  /// backs off proportionally.
  void set_trip_derate(double factor);
  double trip_derate() const noexcept { return trip_derate_; }
  /// Utility feed availability. While the feed is down the breaker can
  /// deliver nothing regardless of its own state (PowerPath then routes
  /// the whole load through the inline UPS).
  void set_supply_available(bool available) noexcept {
    supply_available_ = available;
  }
  bool supply_available() const noexcept { return supply_available_; }

 private:
  /// Trip threshold after derating.
  double effective_threshold() const noexcept;
  /// exp(-dt / cooling tau): the per-tick decay of the thermal state.
  double cooling_factor(double dt_s) noexcept;

  double rated_power_w_;
  TripCurve curve_;
  double theta_ = 0.0;
  bool open_ = false;
  int trip_count_ = 0;
  bool overloaded_ = false;  ///< currently delivering above rated
  double elapsed_s_ = 0.0;
  double trip_derate_ = 1.0;
  bool supply_available_ = true;
  obs::ObsSink* obs_ = nullptr;
  // The cooling factor depends only on (curve, dt) and dt is fixed for a
  // whole simulation: cache it keyed on the last dt seen, computed by the
  // same expression, so cached runs are bit-identical to uncached ones.
  double cached_dt_s_ = -1.0;
  double cooling_factor_ = 0.0;
};

}  // namespace sprintcon::power
