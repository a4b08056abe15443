#include "control/linalg.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/validation.hpp"
#include "control/matrix.hpp"

namespace sprintcon::control {

Matrix cholesky(const Matrix& a) {
  SPRINTCON_EXPECTS(a.rows() == a.cols(), "cholesky needs a square matrix");
  const std::size_t n = a.rows();
  Matrix l(n, n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (diag <= 0.0 || !std::isfinite(diag))
      throw NumericalError("cholesky: matrix is not positive definite");
    l(j, j) = std::sqrt(diag);
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = a(i, j);
      for (std::size_t k = 0; k < j; ++k) v -= l(i, k) * l(j, k);
      l(i, j) = v / l(j, j);
    }
  }
  return l;
}

Vector cholesky_solve(const Matrix& a, const Vector& b) {
  const Matrix l = cholesky(a);
  const std::size_t n = l.rows();
  SPRINTCON_EXPECTS(b.size() == n, "cholesky_solve dimension mismatch");
  // Forward substitution: L y = b.
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[i];
    for (std::size_t k = 0; k < i; ++k) v -= l(i, k) * y[k];
    y[i] = v / l(i, i);
  }
  // Back substitution: L^T x = y.
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double v = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) v -= l(k, ii) * x[k];
    x[ii] = v / l(ii, ii);
  }
  return x;
}

Matrix lu_factor(const Matrix& a, std::vector<std::size_t>& perm) {
  SPRINTCON_EXPECTS(a.rows() == a.cols(), "lu_factor needs a square matrix");
  const std::size_t n = a.rows();
  Matrix lu = a;
  perm.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: swap in the largest remaining column entry.
    std::size_t piv = k;
    double best = std::abs(lu(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      if (std::abs(lu(i, k)) > best) {
        best = std::abs(lu(i, k));
        piv = i;
      }
    }
    if (best < 1e-14)
      throw NumericalError("lu_factor: matrix is numerically singular");
    if (piv != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(lu(k, c), lu(piv, c));
      std::swap(perm[k], perm[piv]);
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      lu(i, k) /= lu(k, k);
      const double lik = lu(i, k);
      for (std::size_t c = k + 1; c < n; ++c) lu(i, c) -= lik * lu(k, c);
    }
  }
  return lu;
}

Vector lu_solve(const Matrix& lu, const std::vector<std::size_t>& perm,
                const Vector& b) {
  const std::size_t n = lu.rows();
  SPRINTCON_EXPECTS(b.size() == n && perm.size() == n,
                    "lu_solve dimension mismatch");
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[perm[i]];
  // Forward substitution with the unit-lower-triangular factor.
  for (std::size_t i = 1; i < n; ++i) {
    double v = x[i];
    for (std::size_t k = 0; k < i; ++k) v -= lu(i, k) * x[k];
    x[i] = v;
  }
  // Back substitution with the upper factor.
  for (std::size_t ii = n; ii-- > 0;) {
    double v = x[ii];
    for (std::size_t k = ii + 1; k < n; ++k) v -= lu(ii, k) * x[k];
    x[ii] = v / lu(ii, ii);
  }
  return x;
}

Vector solve(const Matrix& a, const Vector& b) {
  std::vector<std::size_t> perm;
  const Matrix lu = lu_factor(a, perm);
  return lu_solve(lu, perm, b);
}

Matrix inverse(const Matrix& a) {
  std::vector<std::size_t> perm;
  const Matrix lu = lu_factor(a, perm);
  const std::size_t n = a.rows();
  Matrix inv(n, n);
  Vector e(n, 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    e.assign(n, 0.0);
    e[c] = 1.0;
    const Vector col = lu_solve(lu, perm, e);
    for (std::size_t r = 0; r < n; ++r) inv(r, c) = col[r];
  }
  return inv;
}

double power_iteration_max_eig(const Matrix& a, int iters) {
  SPRINTCON_EXPECTS(a.rows() == a.cols(), "power iteration needs square matrix");
  const std::size_t n = a.rows();
  if (n == 0) return 0.0;
  // Deterministic start: alternating signs avoids orthogonality to the
  // dominant eigenvector for the structured Hessians we see in practice.
  Vector v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = (i % 2 == 0) ? 1.0 : -0.5;
  double lambda = 0.0;
  for (int it = 0; it < iters; ++it) {
    Vector w = a * v;
    const double nw = norm2(w);
    if (nw < 1e-300) return 0.0;
    lambda = dot(v, w) / dot(v, v);
    v = scale(w, 1.0 / nw);
  }
  return std::abs(lambda);
}

}  // namespace sprintcon::control
