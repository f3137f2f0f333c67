// Dense row-major matrix, sized for small optimization problems: the
// barrier's Newton systems and check_kkt's least-squares multiplier fits.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/vector.hpp"
#include "util/assert.hpp"

namespace ripple::linalg {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool square() const noexcept { return rows_ == cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    RIPPLE_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    RIPPLE_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }

  /// A += s * I (used to regularize near-singular Newton systems).
  void add_diagonal(double s) {
    RIPPLE_REQUIRE(square(), "add_diagonal needs a square matrix");
    for (std::size_t i = 0; i < rows_; ++i) data_[i * cols_ + i] += s;
  }

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace ripple::linalg
