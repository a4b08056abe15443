#include "control/mpc_analysis.hpp"

#include <cmath>

#include "common/validation.hpp"
#include "control/linalg.hpp"
#include "control/matrix.hpp"

namespace sprintcon::control {

Matrix mpc_closed_loop_matrix(const MpcConfig& config,
                              const Vector& model_gains,
                              const Vector& true_gains,
                              const Vector& penalty) {
  SPRINTCON_EXPECTS(model_gains.size() == true_gains.size(),
                    "gain vector size mismatch");
  SPRINTCON_EXPECTS(model_gains.size() == penalty.size(),
                    "penalty vector size mismatch");
  const std::size_t n = model_gains.size();
  const double gamma =
      1.0 - std::exp(-config.control_period_s /
                     config.reference_time_constant_s);

  // Unconstrained one-step law: M z = K^T (r_1 - p_fb + K F) + R F_max
  // with M = K^T K + R. Substituting r_1 - p_fb = gamma (P - p_fb) and
  // p_fb = K_true F + C gives the homogeneous part
  //   F(t+1) = M^{-1} K^T (K - gamma K_true) F(t) + const.
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j)
      m(i, j) = model_gains[i] * model_gains[j];
    m(i, i) += penalty[i];
  }
  Matrix rhs(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j)
      rhs(i, j) = model_gains[i] * (model_gains[j] - gamma * true_gains[j]);
  }
  return inverse(m) * rhs;
}

}  // namespace sprintcon::control
