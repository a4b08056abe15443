// Tests for the box-constrained QP solver.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "control/matrix.hpp"
#include "control/qp.hpp"

namespace sprintcon::control {
namespace {

TEST(BoxQp, UnconstrainedMinimumInsideBox) {
  // min (x-1)^2 + (y-2)^2, box [-10, 10]^2 -> (1, 2).
  BoxQp qp;
  qp.hessian = from_rows({{2.0, 0.0}, {0.0, 2.0}});
  qp.gradient = {-2.0, -4.0};
  qp.lower = {-10.0, -10.0};
  qp.upper = {10.0, 10.0};
  const QpResult r = solve_box_qp(qp, {0.0, 0.0});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 1.0, 1e-6);
  EXPECT_NEAR(r.x[1], 2.0, 1e-6);
}

TEST(BoxQp, ActiveBoundClamps) {
  // Same objective, but box caps x at 0.5.
  BoxQp qp;
  qp.hessian = from_rows({{2.0, 0.0}, {0.0, 2.0}});
  qp.gradient = {-2.0, -4.0};
  qp.lower = {-1.0, -1.0};
  qp.upper = {0.5, 10.0};
  const QpResult r = solve_box_qp(qp, {0.0, 0.0});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 0.5, 1e-6);
  EXPECT_NEAR(r.x[1], 2.0, 1e-6);
}

TEST(BoxQp, CoupledHessian) {
  // min 1/2 x'Hx + g'x with H = [[2,1],[1,2]]: solution solves Hx = -g.
  BoxQp qp;
  qp.hessian = from_rows({{2.0, 1.0}, {1.0, 2.0}});
  qp.gradient = {-3.0, -3.0};
  qp.lower = {-10.0, -10.0};
  qp.upper = {10.0, 10.0};
  const QpResult r = solve_box_qp(qp, {0.0, 0.0});
  EXPECT_NEAR(r.x[0], 1.0, 1e-6);
  EXPECT_NEAR(r.x[1], 1.0, 1e-6);
}

TEST(BoxQp, DegenerateZeroBoxReturnsCorner) {
  BoxQp qp;
  qp.hessian = from_rows({{2.0}});
  qp.gradient = {-10.0};
  qp.lower = {3.0};
  qp.upper = {3.0};  // point box
  const QpResult r = solve_box_qp(qp, {0.0});
  EXPECT_DOUBLE_EQ(r.x[0], 3.0);
  EXPECT_TRUE(r.converged);
}

TEST(BoxQp, WarmStartAgreesWithColdStart) {
  BoxQp qp;
  qp.hessian = from_rows({{4.0, 1.0}, {1.0, 3.0}});
  qp.gradient = {1.0, -2.0};
  qp.lower = {0.0, 0.0};
  qp.upper = {1.0, 1.0};
  const QpResult cold = solve_box_qp(qp, {0.0, 0.0});
  const QpResult warm = solve_box_qp(qp, cold.x);
  EXPECT_NEAR(cold.x[0], warm.x[0], 1e-6);
  EXPECT_NEAR(cold.x[1], warm.x[1], 1e-6);
  EXPECT_LE(warm.iterations, cold.iterations);
}

TEST(BoxQp, CrossedBoundsThrow) {
  BoxQp qp;
  qp.hessian = from_rows({{1.0}});
  qp.gradient = {0.0};
  qp.lower = {1.0};
  qp.upper = {0.0};
  EXPECT_THROW(solve_box_qp(qp, {0.0}), InvalidArgumentError);
}

TEST(BoxQp, DimensionMismatchThrows) {
  BoxQp qp;
  qp.hessian = from_rows({{1.0}});
  qp.gradient = {0.0, 1.0};
  qp.lower = {0.0};
  qp.upper = {1.0};
  EXPECT_THROW(solve_box_qp(qp, {0.0}), InvalidArgumentError);
}

TEST(BoxQp, ObjectiveAndResidualHelpers) {
  BoxQp qp;
  qp.hessian = from_rows({{2.0}});
  qp.gradient = {-2.0};
  qp.lower = {-5.0};
  qp.upper = {5.0};
  EXPECT_DOUBLE_EQ(box_qp_objective(qp, {0.0}), 0.0);
  EXPECT_DOUBLE_EQ(box_qp_objective(qp, {1.0}), -1.0);
  EXPECT_NEAR(box_qp_residual(qp, {1.0}), 0.0, 1e-12);  // KKT point
  EXPECT_GT(box_qp_residual(qp, {0.0}), 0.1);
}

// Property sweep: for random PSD problems the solution satisfies the
// projected-gradient KKT condition and beats a sample of feasible points.
class QpProperty : public ::testing::TestWithParam<int> {};

TEST_P(QpProperty, KktResidualSmallAndObjectiveOptimal) {
  Rng rng(9000 + GetParam());
  const std::size_t n = 1 + static_cast<std::size_t>(GetParam() % 12);
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
  BoxQp qp;
  qp.hessian = transposed(a) * a;
  for (std::size_t i = 0; i < n; ++i) qp.hessian(i, i) += 0.5;
  qp.gradient.resize(n);
  qp.lower.assign(n, 0.0);
  qp.upper.assign(n, 1.0);
  for (auto& g : qp.gradient) g = rng.uniform(-5.0, 5.0);

  QpOptions opts;
  opts.max_iterations = 2000;
  opts.tolerance = 1e-9;
  const QpResult r = solve_box_qp(qp, Vector(n, 0.5), opts);
  EXPECT_TRUE(r.converged) << "residual " << r.residual;

  const double f_star = box_qp_objective(qp, r.x);
  for (int trial = 0; trial < 50; ++trial) {
    Vector y(n);
    for (auto& v : y) v = rng.uniform(0.0, 1.0);
    EXPECT_GE(box_qp_objective(qp, y) + 1e-9, f_star);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, QpProperty, ::testing::Range(0, 20));

}  // namespace
}  // namespace sprintcon::control
