// Per-coordinate structured QP solver: the bit-identity oracle for
// solve_structured_qp (control/structured_qp.hpp).
//
// The library solver evaluates each class of bitwise-equal coordinates
// once and searches two blocks in lockstep. This file keeps the same
// algorithm written one coordinate and one block at a time, with no
// partition: the safeguarded Newton solve of each block's scalar KKT
// equation, then the FISTA polish when the direct answer's residual
// misses the tolerance. Every QpResult field of the two solvers
// must agree bit for bit (structured_qp_test).
#pragma once

#include "control/structured_block_qp.hpp"

namespace sprintcon::control {

/// out = H x for the structured Hessian. O(n Lc); `out` is resized to match.
void structured_matvec(const StructuredBlockQp& qp, const Vector& x,
                       Vector& out);

/// Projected-gradient residual ||x - clamp(x - (Hx + g))||_inf, evaluated
/// in O(n Lc); zero exactly at a KKT point.
double structured_residual(const StructuredBlockQp& qp, const Vector& x);

/// The structured solve with every coordinate evaluated on its own.
QpResult solve_structured_qp_reference(const StructuredBlockQp& qp,
                                       const Vector& x0,
                                       const QpOptions& options);

}  // namespace sprintcon::control
