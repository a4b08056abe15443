#include "control/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "common/validation.hpp"

namespace sprintcon::control {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

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

Matrix from_rows(std::initializer_list<std::initializer_list<double>> rows) {
  const std::size_t cols = rows.size() ? rows.begin()->size() : 0;
  Matrix m(rows.size(), cols);
  std::size_t r = 0;
  for (const auto& row : rows) {
    SPRINTCON_EXPECTS(row.size() == cols, "ragged initializer for Matrix");
    std::size_t c = 0;
    for (const double v : row) m(r, c++) = v;
    ++r;
  }
  return m;
}

Matrix diagonal(const Vector& d) {
  Matrix m(d.size(), d.size(), 0.0);
  for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

Matrix transposed(const Matrix& m) {
  Matrix t(m.cols(), m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c) t(c, r) = m(r, c);
  return t;
}

Matrix operator*(const Matrix& lhs, const Matrix& rhs) {
  SPRINTCON_EXPECTS(lhs.cols() == rhs.rows(),
                    "matrix product dimension mismatch");
  Matrix out(lhs.rows(), rhs.cols(), 0.0);
  // i-k-j loop order keeps the inner loop streaming over contiguous rows.
  for (std::size_t i = 0; i < lhs.rows(); ++i) {
    for (std::size_t k = 0; k < lhs.cols(); ++k) {
      const double aik = lhs(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < rhs.cols(); ++j)
        out(i, j) += aik * rhs(k, j);
    }
  }
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

double norm2(const Vector& v) { return std::sqrt(dot(v, v)); }

Vector clamp(const Vector& v, const Vector& lo, const Vector& hi) {
  SPRINTCON_EXPECTS(v.size() == lo.size() && v.size() == hi.size(),
                    "clamp dimension mismatch");
  Vector out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    out[i] = std::clamp(v[i], lo[i], hi[i]);
  return out;
}

}  // namespace sprintcon::control
