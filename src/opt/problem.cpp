#include "opt/problem.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace ripple::opt {

double ConvexProblem::infeasibility(const linalg::Vector& x) const {
  return std::max(0.0, -min_slack(x));
}

double ConvexProblem::min_slack(const linalg::Vector& x) const {
  RIPPLE_REQUIRE(x.size() == dimension(), "point dimension mismatch");
  double smallest = kInf;
  for (const LinearInequality& constraint : constraints) {
    smallest = std::min(smallest, constraint.slack(x));
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (lower_bounds[i] > -kInf) smallest = std::min(smallest, x[i] - lower_bounds[i]);
    if (upper_bounds[i] < kInf) smallest = std::min(smallest, upper_bounds[i] - x[i]);
  }
  return smallest;
}

}  // namespace ripple::opt
