// Unit + property tests for the dense factorizations.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "control/linalg.hpp"
#include "control/matrix.hpp"

namespace sprintcon::control {
namespace {

Matrix random_spd(std::size_t n, Rng& rng) {
  // A^T A + n I is symmetric positive definite.
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
  Matrix spd = transposed(a) * a;
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  return spd;
}

TEST(Cholesky, FactorsKnownMatrix) {
  Matrix a = from_rows({{4.0, 2.0}, {2.0, 3.0}});
  const Matrix l = cholesky(a);
  EXPECT_NEAR(l(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(l(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(l(1, 1), std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(l(0, 1), 0.0, 1e-12);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a = from_rows({{1.0, 2.0}, {2.0, 1.0}});  // eigenvalues 3, -1
  EXPECT_THROW(cholesky(a), NumericalError);
}

TEST(Cholesky, SolveMatchesDirectCheck) {
  Matrix a = from_rows({{4.0, 2.0}, {2.0, 3.0}});
  const Vector x = cholesky_solve(a, {8.0, 7.0});
  const Vector ax = a * x;
  EXPECT_NEAR(ax[0], 8.0, 1e-10);
  EXPECT_NEAR(ax[1], 7.0, 1e-10);
}

TEST(Lu, SolveGeneralSystem) {
  Matrix a = from_rows({{0.0, 2.0, 1.0}, {1.0, -2.0, -3.0}, {-1.0, 1.0, 2.0}});
  const Vector b{-8.0, 0.0, 3.0};
  const Vector x = solve(a, b);
  const Vector ax = a * x;
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(ax[i], b[i], 1e-10);
}

TEST(Lu, SingularMatrixThrows) {
  Matrix a = from_rows({{1.0, 2.0}, {2.0, 4.0}});
  EXPECT_THROW(solve(a, {1.0, 1.0}), NumericalError);
}

TEST(Lu, InverseTimesOriginalIsIdentity) {
  Matrix a = from_rows({{2.0, 1.0}, {5.0, 3.0}});
  const Matrix prod = a * inverse(a);
  EXPECT_NEAR(prod(0, 0), 1.0, 1e-10);
  EXPECT_NEAR(prod(0, 1), 0.0, 1e-10);
  EXPECT_NEAR(prod(1, 0), 0.0, 1e-10);
  EXPECT_NEAR(prod(1, 1), 1.0, 1e-10);
}

TEST(PowerIteration, DiagonalMatrix) {
  const Matrix d = diagonal({1.0, 5.0, 3.0});
  EXPECT_NEAR(power_iteration_max_eig(d), 5.0, 1e-6);
}

TEST(PowerIteration, ZeroMatrix) {
  EXPECT_DOUBLE_EQ(power_iteration_max_eig(Matrix(3, 3, 0.0)), 0.0);
}

// Property sweep: random SPD solves satisfy A x = b to tight tolerance
// across sizes.
class LinalgProperty : public ::testing::TestWithParam<int> {};

TEST_P(LinalgProperty, CholeskySolveResidualSmall) {
  const auto n = static_cast<std::size_t>(GetParam());
  Rng rng(1000 + GetParam());
  const Matrix a = random_spd(n, rng);
  Vector b(n);
  for (auto& v : b) v = rng.uniform(-10.0, 10.0);
  const Vector x = cholesky_solve(a, b);
  const Vector ax = a * x;
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-8);
}

TEST_P(LinalgProperty, LuSolveResidualSmall) {
  const auto n = static_cast<std::size_t>(GetParam());
  Rng rng(2000 + GetParam());
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 3.0;  // well-conditioned
  Vector b(n);
  for (auto& v : b) v = rng.uniform(-10.0, 10.0);
  const Vector x = solve(a, b);
  const Vector ax = a * x;
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-8);
}

TEST_P(LinalgProperty, PowerIterationBoundsSpectrum) {
  const auto n = static_cast<std::size_t>(GetParam());
  Rng rng(3000 + GetParam());
  const Matrix a = random_spd(n, rng);
  const double lmax = power_iteration_max_eig(a, 200);
  // lambda_max must dominate the Rayleigh quotient of any unit vector.
  Vector v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  const double rayleigh = dot(v, a * v) / dot(v, v);
  EXPECT_GE(lmax * (1.0 + 1e-6), rayleigh);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LinalgProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace sprintcon::control
