#include "power/supercap.hpp"

#include <algorithm>
#include <cmath>

#include "common/units.hpp"
#include "common/validation.hpp"

namespace sprintcon::power {

Supercapacitor::Supercapacitor(double capacity_wh, double max_discharge_w,
                               double leak_tau_s)
    : capacity_wh_(capacity_wh),
      max_discharge_w_(max_discharge_w),
      leak_tau_s_(leak_tau_s),
      charge_wh_(capacity_wh) {
  SPRINTCON_EXPECTS(capacity_wh > 0.0, "supercap capacity must be positive");
  SPRINTCON_EXPECTS(max_discharge_w > 0.0, "discharge limit must be positive");
}

void Supercapacitor::leak(double dt_s) {
  SPRINTCON_EXPECTS(dt_s > 0.0, "dt must be positive");
  if (leak_tau_s_ > 0.0) charge_wh_ *= std::exp(-dt_s / leak_tau_s_);
}

double Supercapacitor::discharge(double power_w, double dt_s) {
  SPRINTCON_EXPECTS(power_w >= 0.0, "discharge power must be non-negative");
  SPRINTCON_EXPECTS(dt_s > 0.0, "dt must be positive");
  leak(dt_s);
  const double limited = std::min(power_w, max_discharge_w_);
  const double max_by_energy = units::wh_to_joules(charge_wh_) / dt_s;
  const double actual = std::min(limited, max_by_energy);
  const double energy_wh = units::joules_to_wh(actual * dt_s);
  charge_wh_ = std::max(0.0, charge_wh_ - energy_wh);
  total_discharged_wh_ += energy_wh;
  return actual;
}

void Supercapacitor::fade_capacity(double keep_fraction) {
  SPRINTCON_EXPECTS(keep_fraction > 0.0 && keep_fraction <= 1.0,
                    "capacity fade fraction must be in (0, 1]");
  capacity_wh_ *= keep_fraction;
  charge_wh_ = std::min(charge_wh_, capacity_wh_);
}

double Supercapacitor::recharge(double power_w, double dt_s) {
  SPRINTCON_EXPECTS(power_w >= 0.0, "recharge power must be non-negative");
  SPRINTCON_EXPECTS(dt_s > 0.0, "dt must be positive");
  leak(dt_s);
  const double room_wh = capacity_wh_ - charge_wh_;
  const double max_by_room = units::wh_to_joules(room_wh) / dt_s;
  const double actual = std::min(power_w, max_by_room);
  charge_wh_ =
      std::min(capacity_wh_, charge_wh_ + units::joules_to_wh(actual * dt_s));
  return actual;
}

}  // namespace sprintcon::power
