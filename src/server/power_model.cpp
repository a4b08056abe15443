#include "server/power_model.hpp"

#include "common/validation.hpp"

namespace sprintcon::server {

MeasurementPowerModel::MeasurementPowerModel(const PlatformSpec& spec)
    : spec_(spec),
      linear_coeff_w_(spec.core_linear_coeff_w()),
      cubic_coeff_w_(spec.core_cubic_coeff_w()) {
  spec.validate();
}

LinearPowerModel::LinearPowerModel(const PlatformSpec& spec,
                                   double nominal_utilization,
                                   double linearization_freq) {
  spec.validate();
  SPRINTCON_EXPECTS(nominal_utilization > 0.0 && nominal_utilization <= 1.0,
                    "nominal utilization must be in (0, 1]");
  SPRINTCON_EXPECTS(linearization_freq > 0.0 && linearization_freq <= 1.0,
                    "linearization frequency must be in (0, 1]");
  // Slope of u * (a f + g f^3) in f at the linearization point.
  const double a = spec.core_linear_coeff_w();
  const double g = spec.core_cubic_coeff_w();
  gain_w_per_f_ = nominal_utilization *
                  (a + 3.0 * g * linearization_freq * linearization_freq);
  constant_w_ = spec.core_idle_share_w();
  // Interactive cores run at peak frequency, so dP/du there is a + g.
  interactive_gain_w_ = a + g;
}

}  // namespace sprintcon::server
