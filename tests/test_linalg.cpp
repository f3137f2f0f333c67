#include <gtest/gtest.h>

#include <cmath>

#include "dist/rng.hpp"
#include "linalg/matrix.hpp"
#include "linalg/solve.hpp"
#include "linalg/vector.hpp"

namespace ripple::linalg {
namespace {

/// A x, for building right-hand sides with a known solution.
Vector times(const Matrix& a, const Vector& x) {
  Vector out(a.rows(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) out[r] += a(r, c) * x[c];
  }
  return out;
}

/// B^T B, a symmetric positive semidefinite matrix.
Matrix gram(const Matrix& b) {
  Matrix out(b.cols(), b.cols());
  for (std::size_t i = 0; i < b.cols(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      for (std::size_t k = 0; k < b.rows(); ++k) out(i, j) += b(k, i) * b(k, j);
    }
  }
  return out;
}

TEST(Vector, ScaleMultipliesEveryEntry) {
  EXPECT_EQ(scale(Vector{1.0, 2.0}, 2.0), (Vector{2.0, 4.0}));
}

TEST(Vector, AxpyAccumulates) {
  Vector a{1.0, 1.0};
  axpy(a, 2.0, Vector{3.0, 4.0});
  EXPECT_EQ(a, (Vector{7.0, 9.0}));
}

TEST(Vector, DotAndNorms) {
  EXPECT_DOUBLE_EQ(dot({1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}), 32.0);
  EXPECT_DOUBLE_EQ(norm_inf({-7.0, 2.0}), 7.0);
}

TEST(Vector, SizeMismatchThrows) {
  Vector a{1.0};
  EXPECT_THROW(axpy(a, 1.0, {1.0, 2.0}), std::logic_error);
  EXPECT_THROW((void)dot({1.0}, {1.0, 2.0}), std::logic_error);
}

TEST(Matrix, IndexOutOfRangeThrows) {
  Matrix a(2, 2);
  EXPECT_THROW((void)a(2, 0), std::logic_error);
}

TEST(SolveLu, SolvesKnownSystem) {
  Matrix a(2, 2);
  a(0, 0) = 2; a(0, 1) = 1; a(1, 0) = 1; a(1, 1) = 3;
  auto x = solve_lu(a, {5.0, 10.0});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR(x.value()[0], 1.0, 1e-12);
  EXPECT_NEAR(x.value()[1], 3.0, 1e-12);
}

TEST(SolveLu, RequiresPivoting) {
  // Zero on the diagonal: fails without partial pivoting.
  Matrix a(2, 2);
  a(0, 0) = 0; a(0, 1) = 1; a(1, 0) = 1; a(1, 1) = 0;
  auto x = solve_lu(a, {2.0, 3.0});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR(x.value()[0], 3.0, 1e-12);
  EXPECT_NEAR(x.value()[1], 2.0, 1e-12);
}

TEST(SolveLu, DetectsSingular) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 2; a(1, 1) = 4;
  auto x = solve_lu(a, {1.0, 2.0});
  ASSERT_FALSE(x.ok());
  EXPECT_EQ(x.error().code, "singular");
}

TEST(SolveCholesky, SolvesSpdSystem) {
  Matrix a(3, 3);
  // SPD: A = L L^T with L = [[2,0,0],[1,2,0],[0,1,2]]
  a(0, 0) = 4; a(0, 1) = 2; a(0, 2) = 0;
  a(1, 0) = 2; a(1, 1) = 5; a(1, 2) = 2;
  a(2, 0) = 0; a(2, 1) = 2; a(2, 2) = 5;
  const Vector truth{1.0, -2.0, 3.0};
  const Vector rhs = times(a, truth);
  auto x = solve_cholesky(a, rhs);
  ASSERT_TRUE(x.ok());
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(x.value()[i], truth[i], 1e-10);
}

TEST(SolveCholesky, RejectsIndefinite) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 2; a(1, 1) = 1;  // eigenvalues 3, -1
  auto x = solve_cholesky(a, {1.0, 1.0});
  ASSERT_FALSE(x.ok());
  EXPECT_EQ(x.error().code, "not_spd");
}

/// Property: LU solve then multiply returns the rhs, over random SPD-ish
/// systems of several sizes.
class SolveRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(SolveRoundTrip, LuRecoversRhs) {
  const int n = GetParam();
  dist::Xoshiro256 rng(1234 + n);
  Matrix a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) a(i, j) = rng.uniform01() - 0.5;
    a(i, i) += static_cast<double>(n);  // diagonally dominant: invertible
  }
  Vector truth(n);
  for (int i = 0; i < n; ++i) truth[i] = rng.uniform01() * 10.0 - 5.0;
  const Vector rhs = times(a, truth);
  auto x = solve_lu(a, rhs);
  ASSERT_TRUE(x.ok());
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x.value()[i], truth[i], 1e-8);
}

TEST_P(SolveRoundTrip, CholeskyMatchesLuOnSpd) {
  const int n = GetParam();
  dist::Xoshiro256 rng(77 + n);
  // Build SPD via B^T B + n I.
  Matrix b(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) b(i, j) = rng.uniform01() - 0.5;
  }
  Matrix a = gram(b);
  a.add_diagonal(static_cast<double>(n));
  Vector rhs(n);
  for (int i = 0; i < n; ++i) rhs[i] = rng.uniform01();
  auto via_lu = solve_lu(a, rhs);
  auto via_chol = solve_cholesky(a, rhs);
  ASSERT_TRUE(via_lu.ok());
  ASSERT_TRUE(via_chol.ok());
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(via_lu.value()[i], via_chol.value()[i], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SolveRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 12, 16));

}  // namespace
}  // namespace ripple::linalg
