// Tests for the Hessenberg/QR eigenvalue solver used by the stability
// analysis.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>

#include "common/rng.hpp"
#include "control/eigen.hpp"
#include "control/matrix.hpp"

namespace sprintcon::control {
namespace {

std::vector<double> sorted_real_parts(const Matrix& a) {
  std::vector<double> re;
  for (const auto& l : eigenvalues(a)) re.push_back(l.real());
  std::sort(re.begin(), re.end());
  return re;
}

TEST(Hessenberg, PreservesUpperHessenbergStructure) {
  Rng rng(5);
  Matrix a(6, 6);
  for (std::size_t r = 0; r < 6; ++r)
    for (std::size_t c = 0; c < 6; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
  const Matrix h = hessenberg(a);
  for (std::size_t r = 2; r < 6; ++r)
    for (std::size_t c = 0; c + 1 < r; ++c) EXPECT_DOUBLE_EQ(h(r, c), 0.0);
}

TEST(Hessenberg, PreservesTrace) {
  Rng rng(7);
  Matrix a(5, 5);
  for (std::size_t r = 0; r < 5; ++r)
    for (std::size_t c = 0; c < 5; ++c) a(r, c) = rng.uniform(-2.0, 2.0);
  const Matrix h = hessenberg(a);
  double tr_a = 0.0, tr_h = 0.0;
  for (std::size_t i = 0; i < 5; ++i) {
    tr_a += a(i, i);
    tr_h += h(i, i);
  }
  EXPECT_NEAR(tr_a, tr_h, 1e-10);
}

TEST(Eigen, DiagonalMatrix) {
  const auto re = sorted_real_parts(diagonal({3.0, -1.0, 2.0}));
  EXPECT_NEAR(re[0], -1.0, 1e-9);
  EXPECT_NEAR(re[1], 2.0, 1e-9);
  EXPECT_NEAR(re[2], 3.0, 1e-9);
}

TEST(Eigen, UpperTriangularReadsDiagonal) {
  Matrix a = from_rows({{1.0, 5.0, 9.0}, {0.0, 4.0, 2.0}, {0.0, 0.0, -2.0}});
  const auto re = sorted_real_parts(a);
  EXPECT_NEAR(re[0], -2.0, 1e-9);
  EXPECT_NEAR(re[1], 1.0, 1e-9);
  EXPECT_NEAR(re[2], 4.0, 1e-9);
}

TEST(Eigen, SymmetricKnownSpectrum) {
  // Eigenvalues of [[2,1],[1,2]] are 1 and 3.
  Matrix a = from_rows({{2.0, 1.0}, {1.0, 2.0}});
  const auto re = sorted_real_parts(a);
  EXPECT_NEAR(re[0], 1.0, 1e-9);
  EXPECT_NEAR(re[1], 3.0, 1e-9);
}

TEST(Eigen, RotationGivesComplexPair) {
  // 90-degree rotation: eigenvalues +/- i.
  Matrix a = from_rows({{0.0, -1.0}, {1.0, 0.0}});
  const auto eig = eigenvalues(a);
  ASSERT_EQ(eig.size(), 2u);
  EXPECT_NEAR(std::abs(eig[0]), 1.0, 1e-9);
  EXPECT_NEAR(std::abs(eig[0].real()), 0.0, 1e-9);
  EXPECT_NEAR(std::abs(eig[0].imag()), 1.0, 1e-9);
  EXPECT_NEAR((eig[0] + eig[1]).imag(), 0.0, 1e-9);  // conjugate pair
}

TEST(Eigen, CompanionMatrixRoots) {
  // Companion of x^3 - 6x^2 + 11x - 6 = (x-1)(x-2)(x-3).
  Matrix a = from_rows({{6.0, -11.0, 6.0}, {1.0, 0.0, 0.0}, {0.0, 1.0, 0.0}});
  const auto re = sorted_real_parts(a);
  EXPECT_NEAR(re[0], 1.0, 1e-7);
  EXPECT_NEAR(re[1], 2.0, 1e-7);
  EXPECT_NEAR(re[2], 3.0, 1e-7);
}

TEST(Eigen, SpectralRadius) {
  Matrix a = from_rows({{0.5, 0.2}, {0.0, -0.8}});
  EXPECT_NEAR(spectral_radius(a), 0.8, 1e-9);
}

TEST(Eigen, SchurStability) {
  EXPECT_TRUE(is_schur_stable(diagonal({0.5, -0.9})));
  EXPECT_FALSE(is_schur_stable(diagonal({0.5, 1.1})));
  EXPECT_FALSE(is_schur_stable(diagonal({0.95}), 0.1));
}

TEST(Eigen, EmptyAndTrivial) {
  EXPECT_TRUE(eigenvalues(Matrix(0, 0)).empty());
  const auto one = eigenvalues(from_rows({{7.0}}));
  ASSERT_EQ(one.size(), 1u);
  EXPECT_DOUBLE_EQ(one[0].real(), 7.0);
}

// Property sweep: trace and determinant-free invariants on random
// matrices — the eigenvalue sum must match the trace.
class EigenProperty : public ::testing::TestWithParam<int> {};

TEST_P(EigenProperty, EigenvalueSumMatchesTrace) {
  const auto n = static_cast<std::size_t>(GetParam() % 10 + 2);
  Rng rng(4000 + GetParam());
  Matrix a(n, n);
  double trace = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-3.0, 3.0);
    trace += a(r, r);
  }
  std::complex<double> sum{0.0, 0.0};
  for (const auto& l : eigenvalues(a)) sum += l;
  EXPECT_NEAR(sum.real(), trace, 1e-6 * std::max(1.0, std::abs(trace)) + 1e-6);
  EXPECT_NEAR(sum.imag(), 0.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Random, EigenProperty, ::testing::Range(0, 24));

}  // namespace
}  // namespace sprintcon::control
