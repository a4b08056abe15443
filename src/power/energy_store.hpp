// Abstraction over rack-level energy storage.
//
// The UPS power controller only needs a discharge knob and a state of
// charge; whether the energy comes from a battery bank, a supercapacitor,
// or a hybrid of the two (Zheng et al., TPDS'17 [24]) is a deployment
// choice. PowerPath and the safety monitor operate on this interface.
#pragma once

namespace sprintcon::power {

/// A dischargeable (and rechargeable) energy reservoir.
class EnergyStore {
 public:
  virtual ~EnergyStore() = default;

  /// Full energy capacity (Wh).
  virtual double capacity_wh() const = 0;
  /// Remaining stored energy (Wh).
  virtual double charge_wh() const = 0;
  /// Power-electronics limit on discharge (W).
  virtual double max_discharge_w() const = 0;
  /// Total energy discharged over the store's life (Wh).
  virtual double total_discharged_wh() const = 0;

  /// Discharge at the requested power for dt; saturates at the power limit
  /// and the remaining energy. Returns the power actually delivered.
  virtual double discharge(double power_w, double dt_s) = 0;
  /// Recharge; returns the power actually absorbed.
  virtual double recharge(double power_w, double dt_s) = 0;
  /// Capacity fade (aging studies / fault injection): shrink the usable
  /// capacity to `keep_fraction` (in (0, 1]) of its current value; stored
  /// energy above the new capacity is lost. Fade never heals.
  virtual void fade_capacity(double keep_fraction) = 0;

  // --- derived helpers -----------------------------------------------------
  /// State of charge in [0, 1].
  double state_of_charge() const { return charge_wh() / capacity_wh(); }
  /// Depth of discharge since full, in [0, 1].
  double depth_of_discharge() const { return 1.0 - state_of_charge(); }
  bool empty() const { return charge_wh() <= 1e-12; }
  /// True when the remaining charge is at or below `fraction` of capacity.
  bool nearly_empty(double fraction = 0.1) const {
    return state_of_charge() <= fraction;
  }
};

}  // namespace sprintcon::power
