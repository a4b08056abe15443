// Unit tests for the test-support dense matrix/vector kernels the
// reference solvers run on.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "control/matrix.hpp"

namespace sprintcon::control {
namespace {

TEST(Matrix, ConstructAndIndex) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 0) = 9.0;
  EXPECT_DOUBLE_EQ(m(0, 0), 9.0);
}

TEST(Matrix, InitializerList) {
  const Matrix m = from_rows({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW(from_rows({{1.0, 2.0}, {3.0}}), InvalidArgumentError);
}

TEST(Matrix, Diagonal) {
  const Matrix d = diagonal({2.0, 3.0});
  EXPECT_DOUBLE_EQ(d(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(d(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
}

TEST(Matrix, Transpose) {
  const Matrix m = from_rows({{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}});
  const Matrix t = transposed(m);
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(Matrix, Product) {
  const Matrix a = from_rows({{1.0, 2.0}, {3.0, 4.0}});
  const Matrix b = from_rows({{5.0, 6.0}, {7.0, 8.0}});
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, ProductDimensionMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(2, 3);
  EXPECT_THROW(a * b, InvalidArgumentError);
}

TEST(Matrix, MatrixVectorProduct) {
  const Matrix a = from_rows({{1.0, 2.0}, {3.0, 4.0}});
  const Vector v = a * Vector{1.0, 1.0};
  EXPECT_DOUBLE_EQ(v[0], 3.0);
  EXPECT_DOUBLE_EQ(v[1], 7.0);
}

TEST(VectorOps, DotAndNorms) {
  const Vector a{1.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(dot(a, a), 9.0);
  EXPECT_DOUBLE_EQ(norm2(a), 3.0);
}

TEST(VectorOps, DimensionMismatchThrows) {
  EXPECT_THROW(dot({1.0}, {1.0, 2.0}), InvalidArgumentError);
}

TEST(VectorOps, Clamp) {
  const Vector v{-1.0, 0.5, 2.0};
  const Vector lo{0.0, 0.0, 0.0};
  const Vector hi{1.0, 1.0, 1.0};
  const Vector c = clamp(v, lo, hi);
  EXPECT_DOUBLE_EQ(c[0], 0.0);
  EXPECT_DOUBLE_EQ(c[1], 0.5);
  EXPECT_DOUBLE_EQ(c[2], 1.0);
}

}  // namespace
}  // namespace sprintcon::control
