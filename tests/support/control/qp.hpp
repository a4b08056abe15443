// Dense box-constrained convex quadratic programming: the reference the
// tests compare the controller's structured solver (structured_qp.hpp)
// against.
//
// The MPC cost (Eq. 8 of the paper) with frequency bounds (Eq. 9) reduces,
// after parameterizing the decision variables as the absolute per-core
// frequencies at each control-horizon step, to
//
//     minimize   1/2 x^T H x + g^T x
//     subject to lo <= x <= hi      (elementwise)
//
// with H symmetric positive semidefinite. We solve it with projected
// gradient descent accelerated by FISTA momentum; the projection onto a box
// is a clamp, so each iteration is O(n^2) for the dense Hessian product.
// For the problem sizes SprintCon sees (cores x control horizon, at most a
// few hundred unknowns) this converges to controller-grade accuracy in well
// under a millisecond.
#pragma once

#include <cstddef>

#include "control/matrix.hpp"
#include "control/structured_qp.hpp"

namespace sprintcon::control {

/// Problem definition for min 1/2 x'Hx + g'x s.t. lo <= x <= hi.
struct BoxQp {
  Matrix hessian;   ///< symmetric PSD, n x n
  Vector gradient;  ///< linear term g, length n
  Vector lower;     ///< elementwise lower bounds
  Vector upper;     ///< elementwise upper bounds
};

/// Solve a box-constrained QP. `x0` seeds the iteration (clamped to the box
/// first); pass the previous control output for warm starts.
QpResult solve_box_qp(const BoxQp& qp, const Vector& x0,
                      const QpOptions& options = {});

/// Projected-gradient residual ||x - clamp(x - grad)||_inf at a point;
/// zero exactly at a KKT point of the box QP. Exposed for testing.
double box_qp_residual(const BoxQp& qp, const Vector& x);

/// Objective value 1/2 x'Hx + g'x. Exposed for testing.
double box_qp_objective(const BoxQp& qp, const Vector& x);

}  // namespace sprintcon::control
