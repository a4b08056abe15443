#include "core/ups_controller.hpp"

#include <algorithm>

#include "common/validation.hpp"

namespace sprintcon::core {

double ups_discharge_command_w(double p_total_w, double p_cb_w) {
  SPRINTCON_EXPECTS(p_total_w >= 0.0, "total power must be >= 0");
  SPRINTCON_EXPECTS(p_cb_w >= 0.0, "P_cb must be >= 0");
  return std::max(0.0, p_total_w - p_cb_w);
}

}  // namespace sprintcon::core
