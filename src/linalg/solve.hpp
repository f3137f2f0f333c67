// Direct solvers for the small dense systems arising in barrier-Newton steps
// and in check_kkt's least-squares multiplier fits.
#pragma once

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "util/result.hpp"

namespace ripple::linalg {

/// Solve A x = b by LU decomposition with partial pivoting.
/// Fails with code "singular" if a pivot falls below `pivot_tolerance`.
util::Result<Vector> solve_lu(const Matrix& a, const Vector& b,
                              double pivot_tolerance = 1e-14);

/// Solve A x = b for symmetric positive-definite A by Cholesky factorization.
/// Fails with code "not_spd" if a leading minor is not positive.
util::Result<Vector> solve_cholesky(const Matrix& a, const Vector& b);

}  // namespace ripple::linalg
