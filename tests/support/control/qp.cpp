#include "control/qp.hpp"

#include <algorithm>
#include <cmath>

#include "common/validation.hpp"
#include "control/linalg.hpp"
#include "control/matrix.hpp"

namespace sprintcon::control {

namespace {

/// Evaluate the convergence residual every this many iterations. The
/// residual costs an extra matvec, so checking each iteration nearly
/// doubles the per-iteration cost; a fixed schedule keeps the solve
/// deterministic at the price of up to three surplus iterations.
constexpr int kResidualCheckInterval = 4;

void check_problem(const BoxQp& qp) {
  const std::size_t n = qp.gradient.size();
  SPRINTCON_EXPECTS(qp.hessian.rows() == n && qp.hessian.cols() == n,
                    "QP Hessian dimension mismatch");
  SPRINTCON_EXPECTS(qp.lower.size() == n && qp.upper.size() == n,
                    "QP bound dimension mismatch");
  for (std::size_t i = 0; i < n; ++i)
    SPRINTCON_EXPECTS(qp.lower[i] <= qp.upper[i], "QP bounds crossed");
}

Vector gradient_at(const BoxQp& qp, const Vector& x) {
  Vector g = qp.hessian * x;
  for (std::size_t i = 0; i < g.size(); ++i) g[i] += qp.gradient[i];
  return g;
}

}  // namespace

double box_qp_objective(const BoxQp& qp, const Vector& x) {
  const Vector hx = qp.hessian * x;
  return 0.5 * dot(x, hx) + dot(qp.gradient, x);
}

double box_qp_residual(const BoxQp& qp, const Vector& x) {
  const Vector g = gradient_at(qp, x);
  double r = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double stepped = std::clamp(x[i] - g[i], qp.lower[i], qp.upper[i]);
    r = std::max(r, std::abs(x[i] - stepped));
  }
  return r;
}

QpResult solve_box_qp(const BoxQp& qp, const Vector& x0,
                      const QpOptions& options) {
  check_problem(qp);
  const std::size_t n = qp.gradient.size();
  SPRINTCON_EXPECTS(x0.size() == n, "QP warm-start dimension mismatch");
  SPRINTCON_EXPECTS(options.max_iterations > 0, "QP needs >= 1 iteration");

  QpResult result;
  if (n == 0) {
    result.converged = true;
    return result;
  }

  // Lipschitz constant of the gradient = lambda_max(H); the power-iteration
  // estimate can slightly undershoot, so pad it before inverting.
  const double lmax = power_iteration_max_eig(qp.hessian);
  const double step = 1.0 / std::max(lmax * 1.05, 1e-12);

  Vector x = clamp(x0, qp.lower, qp.upper);
  Vector y = x;  // FISTA extrapolation point
  double t_momentum = 1.0;

  for (int it = 0; it < options.max_iterations; ++it) {
    const Vector g = gradient_at(qp, y);
    Vector x_next(n);
    for (std::size_t i = 0; i < n; ++i) {
      x_next[i] = std::clamp(y[i] - step * g[i], qp.lower[i], qp.upper[i]);
    }

    // O'Donoghue-Candes gradient restart: when the momentum direction
    // opposes the descent direction, drop the momentum. Restores linear
    // convergence on strongly convex problems, where plain FISTA
    // oscillates.
    double restart_test = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      restart_test += g[i] * (x_next[i] - x[i]);
    if (restart_test > 0.0) {
      t_momentum = 1.0;
      ++result.restarts;
    }

    const double t_next =
        0.5 * (1.0 + std::sqrt(1.0 + 4.0 * t_momentum * t_momentum));
    const double beta = (t_momentum - 1.0) / t_next;
    for (std::size_t i = 0; i < n; ++i)
      y[i] = x_next[i] + beta * (x_next[i] - x[i]);
    x = std::move(x_next);
    t_momentum = t_next;
    result.iterations = it + 1;

    // Convergence check on the true iterate (not the extrapolated point).
    // The residual needs a fresh Hessian matvec — a full extra O(n^2) pass —
    // so it runs on a fixed schedule every kResidualCheckInterval
    // iterations, which stays deterministic while roughly halving the
    // per-iteration cost versus checking every time.
    if ((it + 1) % kResidualCheckInterval == 0) {
      const double res = box_qp_residual(qp, x);
      if (res < options.tolerance) {
        result.converged = true;
        result.residual = res;
        result.x = std::move(x);
        return result;
      }
    }
  }

  result.residual = box_qp_residual(qp, x);
  result.converged = result.residual < options.tolerance;
  result.x = std::move(x);
  return result;
}

}  // namespace sprintcon::control
