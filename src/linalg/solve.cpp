#include "linalg/solve.hpp"

#include <cmath>
#include <numeric>
#include <utility>

namespace ripple::linalg {

namespace {

struct LuFactors {
  Matrix lu;                     // packed L (unit diagonal) and U
  std::vector<std::size_t> perm; // row permutation
};

util::Result<LuFactors> factor_lu(const Matrix& a, double pivot_tolerance) {
  RIPPLE_REQUIRE(a.square(), "LU needs a square matrix");
  const std::size_t n = a.rows();
  LuFactors f{a, std::vector<std::size_t>(n)};
  std::iota(f.perm.begin(), f.perm.end(), std::size_t{0});

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: largest magnitude in column k at or below the diagonal.
    std::size_t pivot_row = k;
    double pivot_mag = std::fabs(f.lu(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::fabs(f.lu(r, k));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = r;
      }
    }
    if (pivot_mag < pivot_tolerance) {
      return util::Result<LuFactors>::failure("singular",
                                              "pivot below tolerance in LU");
    }
    if (pivot_row != k) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(f.lu(k, c), f.lu(pivot_row, c));
      }
      std::swap(f.perm[k], f.perm[pivot_row]);
    }
    const double pivot = f.lu(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double m = f.lu(r, k) / pivot;
      f.lu(r, k) = m;
      for (std::size_t c = k + 1; c < n; ++c) {
        f.lu(r, c) -= m * f.lu(k, c);
      }
    }
  }
  return f;
}

Vector lu_solve_factored(const LuFactors& f, const Vector& b) {
  const std::size_t n = f.perm.size();
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[f.perm[i]];
    for (std::size_t j = 0; j < i; ++j) sum -= f.lu(i, j) * y[j];
    y[i] = sum;
  }
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) sum -= f.lu(ii, j) * x[j];
    x[ii] = sum / f.lu(ii, ii);
  }
  return x;
}

}  // namespace

util::Result<Vector> solve_lu(const Matrix& a, const Vector& b,
                              double pivot_tolerance) {
  RIPPLE_REQUIRE(b.size() == a.rows(), "rhs size mismatch");
  auto factors = factor_lu(a, pivot_tolerance);
  if (!factors.ok()) {
    return util::Result<Vector>::failure(factors.error().code,
                                         factors.error().message);
  }
  return lu_solve_factored(factors.value(), b);
}

util::Result<Vector> solve_cholesky(const Matrix& a, const Vector& b) {
  RIPPLE_REQUIRE(a.square(), "Cholesky needs a square matrix");
  RIPPLE_REQUIRE(b.size() == a.rows(), "rhs size mismatch");
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (diag <= 0.0) {
      return util::Result<Vector>::failure("not_spd",
                                           "matrix is not positive definite");
    }
    l(j, j) = std::sqrt(diag);
    for (std::size_t i = j + 1; i < n; ++i) {
      double sum = a(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      l(i, j) = sum / l(j, j);
    }
  }
  // Forward then back substitution with L and L^T.
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t j = 0; j < i; ++j) sum -= l(i, j) * y[j];
    y[i] = sum / l(i, i);
  }
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) sum -= l(j, ii) * x[j];
    x[ii] = sum / l(ii, ii);
  }
  return x;
}

}  // namespace ripple::linalg
