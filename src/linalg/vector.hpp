// Dense real vector operations on std::vector<double>.
//
// The solver dimensionality here is tiny (N = pipeline depth, typically 4),
// so clarity wins over blocking/vectorization tricks.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "util/assert.hpp"

namespace ripple::linalg {

using Vector = std::vector<double>;

inline Vector zeros(std::size_t n) { return Vector(n, 0.0); }

inline Vector scale(const Vector& a, double s) {
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * s;
  return out;
}

/// a += s * b
inline void axpy(Vector& a, double s, const Vector& b) {
  RIPPLE_REQUIRE(a.size() == b.size(), "vector size mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += s * b[i];
}

inline double dot(const Vector& a, const Vector& b) {
  RIPPLE_REQUIRE(a.size() == b.size(), "vector size mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

inline double norm_inf(const Vector& a) {
  double m = 0.0;
  for (double v : a) m = std::max(m, std::fabs(v));
  return m;
}

}  // namespace ripple::linalg
