// Dense matrix/vector operations that only the reference solvers and the
// tests use: building fixtures, transposes and products for the
// factorizations, and the clamp/norm helpers of the dense QP.
#pragma once

#include <initializer_list>

#include "control/matrix.hpp"

namespace sprintcon::control {

/// Matrix from nested initializer lists; all rows must be equal length.
Matrix from_rows(std::initializer_list<std::initializer_list<double>> rows);

Matrix diagonal(const Vector& d);
Matrix transposed(const Matrix& m);
Matrix operator*(const Matrix& lhs, const Matrix& rhs);

double norm2(const Vector& v);
/// Elementwise clamp of v into [lo, hi] (all same length).
Vector clamp(const Vector& v, const Vector& lo, const Vector& hi);

}  // namespace sprintcon::control
