#include "control/structured_qp_reference.hpp"

#include <algorithm>
#include <cmath>

#include "common/validation.hpp"

namespace sprintcon::control {

void structured_matvec(const StructuredBlockQp& qp, const Vector& x,
                       Vector& out) {
  const std::size_t n = qp.block_size();
  const std::size_t blocks = qp.num_blocks();
  out.resize(n * blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t off = b * n;
    double kx = 0.0;
    for (std::size_t i = 0; i < n; ++i) kx += qp.gains[i] * x[off + i];
    const double c_kx = qp.rank_weight[b] * kx;
    for (std::size_t i = 0; i < n; ++i)
      out[off + i] = qp.penalty[i] * x[off + i] + qp.gains[i] * c_kx;
  }
}

double structured_residual(const StructuredBlockQp& qp, const Vector& x) {
  const std::size_t n = qp.block_size();
  const std::size_t blocks = qp.num_blocks();
  double r = 0.0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t off = b * n;
    double kx = 0.0;
    for (std::size_t i = 0; i < n; ++i) kx += qp.gains[i] * x[off + i];
    const double c_kx = qp.rank_weight[b] * kx;
    for (std::size_t i = 0; i < n; ++i) {
      const double g = qp.penalty[i] * x[off + i] + qp.gains[i] * c_kx +
                       qp.gradient[off + i];
      const double stepped =
          std::clamp(x[off + i] - g, qp.lower[off + i], qp.upper[off + i]);
      r = std::max(r, std::abs(x[off + i] - stepped));
    }
  }
  return r;
}

namespace {

/// Exact minimizer of block b by safeguarded Newton on phi(s) = k^T x(s) - s
/// (see solve_structured_qp). Returns the scalar pass count.
int solve_block_direct(const StructuredBlockQp& qp, std::size_t b,
                       double tolerance, const Vector& x0, Vector& x) {
  const std::size_t n = qp.block_size();
  const std::size_t off = b * n;
  const double c = qp.rank_weight[b];

  double k_max = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    k_max = std::max(k_max, std::abs(qp.gains[i]));
  if (c * k_max == 0.0) {
    for (std::size_t i = 0; i < n; ++i) {
      x[off + i] = std::clamp(-qp.gradient[off + i] / qp.penalty[i],
                              qp.lower[off + i], qp.upper[off + i]);
    }
    return 1;
  }

  double lo = 0.0, hi = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = qp.gains[i] * qp.lower[off + i];
    const double b2 = qp.gains[i] * qp.upper[off + i];
    lo += std::min(a, b2);
    hi += std::max(a, b2);
  }
  const double tol_s = 0.25 * tolerance / std::max(1.0, c * k_max);

  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += qp.gains[i] * x0[off + i];
  s = std::clamp(s, lo, hi);

  int iterations = 0;
  double s_prev = s;
  for (; iterations < 200; ++iterations) {
    double kx = 0.0;
    double interior_slope = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double xi_free = -(qp.gradient[off + i] + c * qp.gains[i] * s) /
                             qp.penalty[i];
      if (xi_free <= qp.lower[off + i]) {
        kx += qp.gains[i] * qp.lower[off + i];
      } else if (xi_free >= qp.upper[off + i]) {
        kx += qp.gains[i] * qp.upper[off + i];
      } else {
        kx += qp.gains[i] * xi_free;
        interior_slope += c * qp.gains[i] * qp.gains[i] / qp.penalty[i];
      }
    }
    const double phi = kx - s;
    if (std::abs(phi) <= tol_s) break;
    if (phi > 0.0) {
      lo = s;
    } else {
      hi = s;
    }
    const double s_newton =
        interior_slope == 0.0 ? kx : s + phi / (1.0 + interior_slope);
    if (s_newton == s) break;
    double s_next =
        (s_newton >= lo && s_newton <= hi) ? s_newton : 0.5 * (lo + hi);
    if (s_next == s_prev) s_next = 0.5 * (lo + hi);
    if (s_next == s) break;
    s_prev = s;
    s = s_next;
  }

  for (std::size_t i = 0; i < n; ++i) {
    x[off + i] = std::clamp(-(qp.gradient[off + i] + c * qp.gains[i] * s) /
                                qp.penalty[i],
                            qp.lower[off + i], qp.upper[off + i]);
  }
  return iterations + 1;
}

}  // namespace

QpResult solve_structured_qp_reference(const StructuredBlockQp& qp,
                                       const Vector& x0,
                                       const QpOptions& options) {
  qp.validate();
  const std::size_t dim = qp.dim();
  SPRINTCON_EXPECTS(x0.size() == dim, "QP warm-start dimension mismatch");
  SPRINTCON_EXPECTS(options.max_iterations > 0, "QP needs >= 1 iteration");

  QpResult result;
  Vector x(dim);
  int direct_iterations = 0;
  for (std::size_t b = 0; b < qp.num_blocks(); ++b)
    direct_iterations += solve_block_direct(qp, b, options.tolerance, x0, x);
  result.direct_passes = direct_iterations;
  const double direct_res = structured_residual(qp, x);
  if (direct_res < options.tolerance) {
    result.iterations = direct_iterations;
    result.converged = true;
    result.residual = direct_res;
    result.x = x;
    return result;
  }

  const double lmax = structured_lambda_max_bound(qp);
  const double step = 1.0 / std::max(lmax, 1e-12);

  Vector y = x;
  Vector x_next(dim);
  Vector g;
  double t_momentum = 1.0;

  for (int it = 0; it < options.max_iterations; ++it) {
    structured_matvec(qp, y, g);
    for (std::size_t i = 0; i < dim; ++i) {
      x_next[i] = std::clamp(y[i] - step * (g[i] + qp.gradient[i]),
                             qp.lower[i], qp.upper[i]);
    }
    double restart_test = 0.0;
    for (std::size_t i = 0; i < dim; ++i)
      restart_test += (g[i] + qp.gradient[i]) * (x_next[i] - x[i]);
    if (restart_test > 0.0) {
      t_momentum = 1.0;
      ++result.restarts;
    }
    const double t_next =
        0.5 * (1.0 + std::sqrt(1.0 + 4.0 * t_momentum * t_momentum));
    const double beta = (t_momentum - 1.0) / t_next;
    for (std::size_t i = 0; i < dim; ++i)
      y[i] = x_next[i] + beta * (x_next[i] - x[i]);
    std::swap(x, x_next);
    t_momentum = t_next;
    result.iterations = it + 1;

    const double res = structured_residual(qp, x);
    if (res < options.tolerance) {
      result.converged = true;
      result.residual = res;
      result.x = x;
      return result;
    }
  }

  result.residual = structured_residual(qp, x);
  result.converged = result.residual < options.tolerance;
  result.x = x;
  return result;
}

}  // namespace sprintcon::control
