#include "control/matrix.hpp"

#include "common/validation.hpp"

namespace sprintcon::control {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Vector Matrix::operator*(const Vector& v) const {
  SPRINTCON_EXPECTS(cols_ == v.size(), "matrix-vector dimension mismatch");
  Vector out(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) acc += (*this)(i, j) * v[j];
    out[i] = acc;
  }
  return out;
}

Matrix Matrix::operator-(const Matrix& rhs) const {
  SPRINTCON_EXPECTS(rows_ == rhs.rows_ && cols_ == rhs.cols_,
                    "matrix difference dimension mismatch");
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] -= rhs.data_[i];
  return out;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

Matrix Matrix::operator*(double s) const {
  Matrix out = *this;
  out *= s;
  return out;
}

double dot(const Vector& a, const Vector& b) {
  SPRINTCON_EXPECTS(a.size() == b.size(), "dot dimension mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

Vector scale(const Vector& a, double s) {
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * s;
  return out;
}

}  // namespace sprintcon::control
