// UPS power controller (Sections IV-A / IV-C of the paper).
//
// Controls the power delivered through the circuit breaker to the target
// P_cb by commanding the UPS discharge: every UPS period the rack's power
// monitor reports p_total, and the controller sets the discharge to
//
//     p_ups = max(0, p_total - P_cb)
//
// (realized by the duty-cycled discharge circuit).
#pragma once

namespace sprintcon::core {

/// Discharge command that caps CB power at P_cb.
/// @param p_total_w  measured rack power (>= 0)
/// @param p_cb_w     current CB power target from the allocator (>= 0)
double ups_discharge_command_w(double p_total_w, double p_cb_w);

}  // namespace sprintcon::core
