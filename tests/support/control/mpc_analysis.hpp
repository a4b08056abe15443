// Closed-loop analysis of the MPC law (Section V-C of the paper):
// docs/CONTROL_THEORY.md's stability and settling arguments, checked by
// mpc_test and cadence_test through eigen.hpp and settling.hpp.
#pragma once

#include "control/matrix.hpp"
#include "control/mpc.hpp"

namespace sprintcon::control {

/// Closed-loop state matrix of the *unconstrained* MPC law applied to a
/// (possibly mismatched) true plant p = K_true . F + C. Used to reproduce
/// the paper's Section V-C stability argument: the loop is stable iff all
/// eigenvalues lie in the unit circle (check with is_schur_stable).
///
/// @param config       controller tuning (uses tau_r and T)
/// @param model_gains  K used inside the controller
/// @param true_gains   actual plant gains (model_gains * error factor)
/// @param penalty      per-core penalty weights R
Matrix mpc_closed_loop_matrix(const MpcConfig& config,
                              const Vector& model_gains,
                              const Vector& true_gains,
                              const Vector& penalty);

}  // namespace sprintcon::control
