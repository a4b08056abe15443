// Small dense matrix/vector types for the control stack.
//
// The only run-time user is the recursive-least-squares gain estimator
// (rls.hpp), whose covariance is dim x dim with dim = 1 in practice, so
// a straightforward row-major dense implementation is sufficient. The
// dense factorizations, eigenvalues and the reference QP solver the
// tests compare the controller against live in tests/support/control/.
#pragma once

#include <cstddef>
#include <vector>

namespace sprintcon::control {

using Vector = std::vector<double>;

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  static Matrix identity(std::size_t n);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  Vector operator*(const Vector& v) const;
  Matrix operator-(const Matrix& rhs) const;
  Matrix& operator*=(double s);
  Matrix operator*(double s) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// --- vector helpers -------------------------------------------------------

double dot(const Vector& a, const Vector& b);
Vector scale(const Vector& a, double s);

}  // namespace sprintcon::control
