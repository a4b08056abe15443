#include "power/hybrid_store.hpp"

#include <algorithm>
#include <cmath>

#include "common/validation.hpp"

namespace sprintcon::power {

namespace {
// Split policy: low-pass time constant separating sustained from
// transient power, the power the battery may additionally spend
// refilling the supercap, and the supercap SOC below which it does.
constexpr double kSplitTauS = 20.0;
constexpr double kTrickleChargeW = 200.0;
constexpr double kTrickleBelowSoc = 0.9;
}  // namespace

HybridStore::HybridStore(UpsBattery battery, Supercapacitor supercap)
    : battery_(battery), supercap_(supercap) {}

double HybridStore::capacity_wh() const noexcept {
  return battery_.capacity_wh() + supercap_.capacity_wh();
}

double HybridStore::charge_wh() const noexcept {
  return battery_.charge_wh() + supercap_.charge_wh();
}

double HybridStore::max_discharge_w() const noexcept {
  return battery_.max_discharge_w() + supercap_.max_discharge_w();
}

double HybridStore::total_discharged_wh() const noexcept {
  // Internal trickle transfers are not external discharge; count the
  // battery (all energy ultimately comes from it between grid charges)
  // plus whatever the supercap delivered beyond what the battery refilled.
  return battery_.total_discharged_wh() + supercap_.total_discharged_wh();
}

double HybridStore::discharge(double power_w, double dt_s) {
  SPRINTCON_EXPECTS(power_w >= 0.0, "discharge power must be non-negative");
  SPRINTCON_EXPECTS(dt_s > 0.0, "dt must be positive");

  // Track the sustained component of the demand.
  const double alpha = 1.0 - std::exp(-dt_s / kSplitTauS);
  sustained_w_ += alpha * (power_w - sustained_w_);

  // The battery discharges at the *sustained* rate regardless of the
  // instantaneous demand — the smooth profile is exactly what protects
  // its cycle life. A trickle raises the target when the supercap needs
  // refilling.
  double battery_target = sustained_w_;
  if (supercap_.state_of_charge() < kTrickleBelowSoc) {
    battery_target += kTrickleChargeW;
  }
  const double battery_out = battery_.discharge(battery_target, dt_s);

  // Whatever the battery produced beyond the demand flows into the
  // supercap (internal transfer, not delivery).
  double delivered = std::min(battery_out, power_w);
  const double surplus = battery_out - delivered;
  if (surplus > 0.0) supercap_.recharge(surplus, dt_s);

  // The supercap serves the transient residual above the battery's share.
  const double residual = power_w - delivered;
  if (residual > 0.0) {
    delivered += supercap_.discharge(residual, dt_s);
  }

  // Anything still missing falls back to the battery (supercap drained).
  const double shortfall = power_w - delivered;
  if (shortfall > 1e-9) {
    delivered += battery_.discharge(shortfall, dt_s);
  }
  return delivered;
}

void HybridStore::fade_capacity(double keep_fraction) {
  battery_.fade_capacity(keep_fraction);
  supercap_.fade_capacity(keep_fraction);
}

double HybridStore::recharge(double power_w, double dt_s) {
  // External charging fills the supercap first (it recovers fast and
  // shields the battery), then the battery.
  const double into_cap = supercap_.recharge(power_w, dt_s);
  const double into_batt = battery_.recharge(power_w - into_cap, dt_s);
  return into_cap + into_batt;
}

}  // namespace sprintcon::power
