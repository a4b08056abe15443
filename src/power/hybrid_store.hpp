// Hybrid battery + supercapacitor storage (after Zheng et al., TPDS'17,
// the charge/discharge design the paper cites for its UPS controller).
//
// The split policy follows the hybrid-storage insight: batteries age with
// every deep or rapid discharge, supercapacitors do not. A first-order
// low-pass filter separates the commanded discharge into a *sustained*
// component served by the battery and a *transient* residual served by the
// supercapacitor. During lulls the battery trickle-recharges the
// supercapacitor so it is ready for the next spike. The result: the same
// power delivered, but the battery sees a smooth, shallow profile — less
// DoD ripple, longer cycle life.
#pragma once

#include "power/battery.hpp"
#include "power/energy_store.hpp"
#include "power/supercap.hpp"

namespace sprintcon::power {

/// Battery + supercapacitor behind one EnergyStore interface.
class HybridStore final : public EnergyStore {
 public:
  HybridStore(UpsBattery battery, Supercapacitor supercap);

  // --- EnergyStore -----------------------------------------------------------
  double capacity_wh() const noexcept override;
  double charge_wh() const noexcept override;
  double max_discharge_w() const noexcept override;
  double total_discharged_wh() const noexcept override;
  double discharge(double power_w, double dt_s) override;
  double recharge(double power_w, double dt_s) override;
  /// Fades both components proportionally (the bank ages as a unit).
  void fade_capacity(double keep_fraction) override;

  // --- component access (wear metrics, tests) ---------------------------------
  const UpsBattery& battery() const noexcept { return battery_; }
  const Supercapacitor& supercap() const noexcept { return supercap_; }
  /// The current sustained-power estimate (the battery's share).
  double sustained_w() const noexcept { return sustained_w_; }

 private:
  UpsBattery battery_;
  Supercapacitor supercap_;
  double sustained_w_ = 0.0;
};

}  // namespace sprintcon::power
