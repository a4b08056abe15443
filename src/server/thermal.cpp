#include "server/thermal.hpp"

#include "common/validation.hpp"

namespace sprintcon::server {

void ThermalSpec::validate() const {
  SPRINTCON_EXPECTS(resistance_c_per_w > 0.0,
                    "thermal resistance must be positive");
  SPRINTCON_EXPECTS(time_constant_s > 0.0, "thermal tau must be positive");
  SPRINTCON_EXPECTS(throttle_temp_c > ambient_c,
                    "throttle temperature must exceed ambient");
  SPRINTCON_EXPECTS(critical_temp_c >= throttle_temp_c,
                    "critical temperature must be >= throttle");
}

}  // namespace sprintcon::server
