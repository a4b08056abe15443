// Small dense matrix/vector types and operations that only the reference
// solvers and the tests use: the row-major Matrix the factorizations,
// eigenvalues, dense box QP and closed-loop analysis work on, fixture
// builders, transposes and products, and the dot/scale/norm/clamp helpers of
// the dense QP. The library itself works on Vector (structured_qp.hpp).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "control/structured_qp.hpp"

namespace sprintcon::control {

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  Vector operator*(const Vector& v) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Matrix from nested initializer lists; all rows must be equal length.
Matrix from_rows(std::initializer_list<std::initializer_list<double>> rows);

Matrix diagonal(const Vector& d);
Matrix transposed(const Matrix& m);
Matrix operator*(const Matrix& lhs, const Matrix& rhs);

double dot(const Vector& a, const Vector& b);
Vector scale(const Vector& a, double s);
double norm2(const Vector& v);
/// Elementwise clamp of v into [lo, hi] (all same length).
Vector clamp(const Vector& v, const Vector& lo, const Vector& hi);

}  // namespace sprintcon::control
