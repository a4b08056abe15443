// Tests for the structured MPC QP operator: every O(n Lc) routine must
// agree with the dense reference implementation, and the MPC controller
// must reproduce the frequencies of a dense `solve_box_qp` assembly of the
// same problem to solver accuracy across random problems.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "control/linalg.hpp"
#include "control/mpc.hpp"
#include "control/qp.hpp"
#include "control/structured_qp.hpp"

namespace sprintcon::control {
namespace {

/// Materialize the dense equivalent of a structured problem.
BoxQp densify(const StructuredBlockQp& sqp) {
  const std::size_t n = sqp.block_size();
  const std::size_t blocks = sqp.num_blocks();
  const std::size_t dim = sqp.dim();
  BoxQp qp;
  qp.hessian = Matrix(dim, dim, 0.0);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t off = b * n;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j)
        qp.hessian(off + i, off + j) +=
            sqp.rank_weight[b] * sqp.gains[i] * sqp.gains[j];
      qp.hessian(off + i, off + i) += sqp.penalty[i];
    }
  }
  qp.gradient = sqp.gradient;
  qp.lower = sqp.lower;
  qp.upper = sqp.upper;
  return qp;
}

StructuredBlockQp random_problem(Rng& rng, std::size_t n, std::size_t blocks) {
  StructuredBlockQp sqp;
  sqp.gains.resize(n);
  sqp.penalty.resize(n);
  sqp.rank_weight.resize(blocks);
  const std::size_t dim = n * blocks;
  sqp.gradient.resize(dim);
  sqp.lower.resize(dim);
  sqp.upper.resize(dim);
  for (std::size_t i = 0; i < n; ++i) {
    sqp.gains[i] = rng.uniform(0.0, 25.0);
    sqp.penalty[i] = rng.uniform(0.1, 8.0);
  }
  for (std::size_t b = 0; b < blocks; ++b)
    sqp.rank_weight[b] = rng.uniform(0.0, 4.0);
  for (std::size_t i = 0; i < dim; ++i) {
    sqp.gradient[i] = rng.uniform(-50.0, 50.0);
    sqp.lower[i] = rng.uniform(0.1, 0.4);
    sqp.upper[i] = rng.uniform(0.6, 1.0);
  }
  return sqp;
}

TEST(StructuredQp, MatvecMatchesDense) {
  Rng rng(31);
  const StructuredBlockQp sqp = random_problem(rng, 5, 3);
  const BoxQp dense = densify(sqp);
  Vector x(sqp.dim());
  for (auto& v : x) v = rng.uniform(-2.0, 2.0);
  Vector hx;
  structured_matvec(sqp, x, hx);
  const Vector dense_hx = dense.hessian * x;
  ASSERT_EQ(hx.size(), dense_hx.size());
  for (std::size_t i = 0; i < hx.size(); ++i)
    EXPECT_NEAR(hx[i], dense_hx[i], 1e-9);
}

TEST(StructuredQp, ResidualMatchesDense) {
  Rng rng(32);
  const StructuredBlockQp sqp = random_problem(rng, 4, 2);
  const BoxQp dense = densify(sqp);
  Vector x(sqp.dim());
  for (auto& v : x) v = rng.uniform(0.0, 1.0);
  EXPECT_NEAR(structured_residual(sqp, x), box_qp_residual(dense, x), 1e-9);
}

TEST(StructuredQp, LambdaMaxBoundDominatesTrueEigenvalue) {
  Rng rng(33);
  for (int trial = 0; trial < 10; ++trial) {
    const StructuredBlockQp sqp = random_problem(rng, 6, 2);
    const BoxQp dense = densify(sqp);
    const double bound = structured_lambda_max_bound(sqp);
    const double estimate = power_iteration_max_eig(dense.hessian);
    EXPECT_GE(bound * (1.0 + 1e-9), estimate);
  }
}

TEST(StructuredQp, LambdaMaxBoundTightForUniformPenalty) {
  // With uniform R the gains vector is an eigenvector of each block, so
  // the bound max(R) + max(c_b) ||k||^2 is the exact top eigenvalue.
  StructuredBlockQp sqp;
  sqp.gains = {3.0, 4.0};
  sqp.penalty = {2.0, 2.0};
  sqp.rank_weight = {1.5};
  sqp.gradient.assign(2, 0.0);
  sqp.lower.assign(2, 0.0);
  sqp.upper.assign(2, 1.0);
  const double bound = structured_lambda_max_bound(sqp);
  const double exact =
      power_iteration_max_eig(densify(sqp).hessian, 200);
  EXPECT_NEAR(bound, exact, 1e-6 * bound);
  EXPECT_DOUBLE_EQ(bound, 2.0 + 1.5 * 25.0);
}

TEST(StructuredQp, SolverMatchesDenseSolver) {
  Rng rng(34);
  QpOptions opts;
  opts.max_iterations = 5000;
  opts.tolerance = 1e-11;
  StructuredQpScratch scratch;
  QpResult structured;
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(trial % 6);
    const std::size_t blocks = 1 + static_cast<std::size_t>(trial % 3);
    const StructuredBlockQp sqp = random_problem(rng, n, blocks);
    const BoxQp dense = densify(sqp);
    Vector x0(sqp.dim(), 0.5);
    solve_structured_qp(sqp, x0, opts, scratch, structured);
    const QpResult ref = solve_box_qp(dense, x0, opts);
    EXPECT_TRUE(structured.converged);
    EXPECT_TRUE(ref.converged);
    for (std::size_t i = 0; i < sqp.dim(); ++i)
      EXPECT_NEAR(structured.x[i], ref.x[i], 1e-9)
          << "trial " << trial << " component " << i;
  }
}

TEST(StructuredQp, InvalidProblemThrows) {
  Rng rng(35);
  StructuredBlockQp sqp = random_problem(rng, 3, 2);
  StructuredQpScratch scratch;
  QpResult result;
  QpOptions opts;
  sqp.penalty[0] = -1.0;
  EXPECT_THROW(solve_structured_qp(sqp, Vector(sqp.dim(), 0.5), opts, scratch,
                                   result),
               InvalidArgumentError);
  // A zero penalty makes the block rank-deficient, and the per-block
  // direct solve divides by every R_i.
  sqp.penalty[0] = 0.0;
  EXPECT_THROW(solve_structured_qp(sqp, Vector(sqp.dim(), 0.5), opts, scratch,
                                   result),
               InvalidArgumentError);
  sqp = random_problem(rng, 3, 2);
  sqp.lower[2] = 2.0;  // crosses upper
  EXPECT_THROW(solve_structured_qp(sqp, Vector(sqp.dim(), 0.5), opts, scratch,
                                   result),
               InvalidArgumentError);
  sqp = random_problem(rng, 3, 2);
  EXPECT_THROW(solve_structured_qp(sqp, Vector(2, 0.5), opts, scratch, result),
               InvalidArgumentError);
}

// --- structured vs dense MPC ------------------------------------------------

MpcProblem random_mpc_problem(Rng& rng, std::size_t n) {
  MpcProblem p;
  p.gains_w_per_f.resize(n);
  p.freq_current.resize(n);
  p.freq_min.resize(n);
  p.freq_max.resize(n);
  p.penalty_weights.resize(n);
  double nominal = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    p.gains_w_per_f[i] = rng.uniform(10.0, 30.0);
    p.freq_min[i] = rng.uniform(0.1, 0.3);
    p.freq_max[i] = rng.uniform(0.7, 1.0);
    p.freq_current[i] = rng.uniform(p.freq_min[i], p.freq_max[i]);
    p.penalty_weights[i] = rng.uniform(0.5, 8.0);
    nominal += p.gains_w_per_f[i] * p.freq_current[i];
  }
  p.power_feedback_w = nominal;
  p.power_target_w = nominal * rng.uniform(0.6, 1.4);
  return p;
}

/// Dense reference for MpcPowerController: materializes the (n Lc)^2 MPC
/// Hessian and solves it with `solve_box_qp`, warm-starting from its own
/// previous solution exactly as the controller does.
class DenseMpcReference {
 public:
  explicit DenseMpcReference(const MpcConfig& cfg) : cfg_(cfg) {}

  MpcOutput step(const MpcProblem& p) {
    const std::size_t n = p.gains_w_per_f.size();
    const std::size_t lc = cfg_.control_horizon;
    const std::size_t lp = cfg_.prediction_horizon;
    const std::size_t dim = n * lc;
    // Reference trajectory (Eq. 7) relative to the prediction's constant
    // part p_fb - K . F; the last control block covers the rest of Lp.
    const double pred_base =
        p.power_feedback_w - dot(p.gains_w_per_f, p.freq_current);
    const double decay =
        std::exp(-cfg_.control_period_s / cfg_.reference_time_constant_s);
    Vector ref_minus_base(lp);
    double e = p.power_target_w - p.power_feedback_w;
    for (std::size_t s = 0; s < lp; ++s) {
      e *= decay;
      ref_minus_base[s] = (p.power_target_w - e) - pred_base;
    }

    BoxQp qp;
    qp.hessian = Matrix(dim, dim, 0.0);
    qp.gradient.assign(dim, 0.0);
    qp.lower.assign(dim, 0.0);
    qp.upper.assign(dim, 0.0);
    for (std::size_t b = 0; b < lc; ++b) {
      const std::size_t last = (b + 1 == lc) ? lp - 1 : b;
      double steps = 0.0;
      double ref_sum = 0.0;
      for (std::size_t s = b; s <= last; ++s) {
        steps += 1.0;
        ref_sum += ref_minus_base[s];
      }
      const std::size_t off = b * n;
      for (std::size_t i = 0; i < n; ++i) {
        const double ki = p.gains_w_per_f[i];
        for (std::size_t j = 0; j < n; ++j)
          qp.hessian(off + i, off + j) += steps * ki * p.gains_w_per_f[j];
        qp.hessian(off + i, off + i) += p.penalty_weights[i];
        qp.gradient[off + i] =
            -ki * ref_sum - p.penalty_weights[i] * p.freq_max[i];
        qp.lower[off + i] = p.freq_min[i];
        qp.upper[off + i] = p.freq_max[i];
      }
    }

    Vector x0 = warm_start_;
    if (x0.size() != dim) {
      x0.clear();
      for (std::size_t b = 0; b < lc; ++b)
        x0.insert(x0.end(), p.freq_current.begin(), p.freq_current.end());
    }
    MpcOutput out;
    out.qp = solve_box_qp(qp, x0, QpOptions{5000, 1e-11});
    warm_start_ = out.qp.x;
    out.freq_next.assign(out.qp.x.begin(),
                         out.qp.x.begin() + static_cast<std::ptrdiff_t>(n));
    out.predicted_power_w = pred_base + dot(p.gains_w_per_f, out.freq_next);
    return out;
  }

 private:
  MpcConfig cfg_;
  Vector warm_start_;
};

TEST(StructuredMpc, MatchesDenseControllerAcrossRandomProblems) {
  Rng rng(77);
  for (int trial = 0; trial < 8; ++trial) {
    MpcConfig cfg;
    cfg.prediction_horizon = 4 + static_cast<std::size_t>(trial % 5);
    cfg.control_horizon = 1 + static_cast<std::size_t>(trial % 3);
    MpcPowerController structured(cfg);
    DenseMpcReference dense(cfg);
    const std::size_t n = 1 + static_cast<std::size_t>(trial % 7);
    // Warm-started sequence: the controller and the dense reference must
    // track each other step by step, not just on a cold solve.
    MpcProblem p = random_mpc_problem(rng, n);
    for (int step = 0; step < 4; ++step) {
      MpcOutput a;
      structured.step(p, a);
      const MpcOutput b = dense.step(p);
      ASSERT_EQ(a.freq_next.size(), b.freq_next.size());
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(a.freq_next[i], b.freq_next[i], 1e-9)
            << "trial " << trial << " step " << step << " core " << i;
      EXPECT_NEAR(a.predicted_power_w, b.predicted_power_w, 1e-6);
      p.freq_current = a.freq_next;
      p.power_feedback_w =
          dot(p.gains_w_per_f, p.freq_current) * rng.uniform(0.95, 1.05);
    }
  }
}

TEST(StructuredMpc, InPlaceStepReusesOutputBuffers) {
  MpcConfig cfg;
  MpcPowerController mpc(cfg);
  Rng rng(79);
  const MpcProblem p = random_mpc_problem(rng, 4);
  MpcOutput out;
  mpc.step(p, out);
  const double* freq_data = out.freq_next.data();
  const double* x_data = out.qp.x.data();
  for (int step = 0; step < 5; ++step) mpc.step(p, out);
  // Same problem shape => the output vectors must not have reallocated.
  EXPECT_EQ(out.freq_next.data(), freq_data);
  EXPECT_EQ(out.qp.x.data(), x_data);
}

}  // namespace
}  // namespace sprintcon::control
