// Dense factorizations and solvers for the control analysis the tests
// run.
//
// Cholesky covers the symmetric positive-definite systems arising from the
// MPC normal equations; LU (partial pivoting) covers the general systems in
// the closed-loop stability analysis; power iteration gives the dense
// reference QP (qp.hpp) its step size.
#pragma once

#include "control/matrix.hpp"

namespace sprintcon::control {

/// Cholesky factorization A = L L^T of a symmetric positive-definite matrix.
/// Throws NumericalError if A is not (numerically) positive definite.
Matrix cholesky(const Matrix& a);

/// Solve A x = b with A symmetric positive definite (via Cholesky).
Vector cholesky_solve(const Matrix& a, const Vector& b);

/// LU factorization with partial pivoting. Returns the packed LU matrix and
/// fills `perm` with the row permutation. Throws NumericalError on a
/// numerically singular matrix.
Matrix lu_factor(const Matrix& a, std::vector<std::size_t>& perm);

/// Solve A x = b using a packed LU factorization from lu_factor.
Vector lu_solve(const Matrix& lu, const std::vector<std::size_t>& perm,
                const Vector& b);

/// Solve A x = b for a general square A (LU with partial pivoting).
Vector solve(const Matrix& a, const Vector& b);

/// Inverse of a general square matrix (column-by-column LU solves).
Matrix inverse(const Matrix& a);

/// Largest eigenvalue estimate of a symmetric PSD matrix via power
/// iteration; used to pick the projected-gradient step size. `iters`
/// iterations from a deterministic start vector.
double power_iteration_max_eig(const Matrix& a, int iters = 50);

}  // namespace sprintcon::control
