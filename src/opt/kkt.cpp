#include "opt/kkt.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/solve.hpp"
#include "util/assert.hpp"

namespace ripple::opt {

namespace {

/// Multipliers lambda for a set of active normals a_j, with the KKT error
/// they witness: stationarity ||g + sum_j lambda_j a_j||_inf and the most
/// negative multiplier.
struct MultiplierFit {
  bool ok = false;
  double residual = 0.0;
  double min_multiplier = 0.0;
  std::size_t most_negative = 0;  ///< index of min_multiplier when < 0

  double error() const { return std::max(residual, -min_multiplier); }
};

/// Least-squares multipliers: minimize ||g + A^T lambda||_2 over lambda,
/// i.e. solve (A A^T) lambda = -A g. Regularize lightly in case active
/// normals are linearly dependent.
MultiplierFit fit_multipliers(const std::vector<linalg::Vector>& normals,
                              const linalg::Vector& g) {
  const std::size_t k = normals.size();
  if (k == 0) return MultiplierFit{true, linalg::norm_inf(g), 0.0, 0};
  MultiplierFit fit;
  linalg::Matrix gram(k, k);
  linalg::Vector rhs(k, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      gram(i, j) = linalg::dot(normals[i], normals[j]);
    }
    rhs[i] = -linalg::dot(normals[i], g);
  }
  gram.add_diagonal(1e-12);
  auto lambda = linalg::solve_lu(gram, rhs);
  if (!lambda.ok()) return fit;

  linalg::Vector residual = g;
  for (std::size_t i = 0; i < k; ++i) {
    linalg::axpy(residual, lambda.value()[i], normals[i]);
    if (lambda.value()[i] < fit.min_multiplier) {
      fit.min_multiplier = lambda.value()[i];
      fit.most_negative = i;
    }
  }
  fit.residual = linalg::norm_inf(residual);
  fit.ok = true;
  return fit;
}

}  // namespace

KktReport check_kkt(const ConvexProblem& problem, const linalg::Vector& x,
                    double active_tolerance) {
  RIPPLE_REQUIRE(x.size() == problem.dimension(), "point dimension mismatch");
  KktReport report;
  report.primal_infeasibility = problem.infeasibility(x);

  // Gather active constraint normals (outward: a with a.x <= rhs active, and
  // +-e_i for bounds).
  std::vector<linalg::Vector> normals;
  const std::size_t n = x.size();
  for (const LinearInequality& c : problem.constraints) {
    if (c.slack(x) <= active_tolerance) {
      normals.push_back(c.coefficients);
      report.active_labels.push_back(c.label.empty() ? "ineq" : c.label);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (problem.lower_bounds[i] > -kInf &&
        x[i] - problem.lower_bounds[i] <= active_tolerance) {
      linalg::Vector e = linalg::zeros(n);
      e[i] = -1.0;  // lower bound is -x_i <= -l_i
      normals.push_back(std::move(e));
      report.active_labels.push_back("lower[" + std::to_string(i) + "]");
    }
    if (problem.upper_bounds[i] < kInf &&
        problem.upper_bounds[i] - x[i] <= active_tolerance) {
      linalg::Vector e = linalg::zeros(n);
      e[i] = 1.0;
      normals.push_back(std::move(e));
      report.active_labels.push_back("upper[" + std::to_string(i) + "]");
    }
  }

  const linalg::Vector g = problem.gradient(x);
  MultiplierFit best = fit_multipliers(normals, g);
  if (!best.ok) {
    // Degenerate active set; report raw gradient norm as the residual.
    report.stationarity_residual = linalg::norm_inf(g);
    report.min_multiplier = 0.0;
    return report;
  }
  // At a degenerate vertex (linearly dependent active normals, e.g. a bound
  // within tolerance of a block of tight chain constraints) the
  // least-squares fit can split the gradient across the normals with mixed
  // signs although nonnegative multipliers exist. Drop the most negative
  // multiplier's constraint and refit, keeping whichever fit witnesses the
  // smaller KKT error; the report always belongs to one multiplier vector.
  MultiplierFit fit = best;
  while (fit.min_multiplier < 0.0) {
    normals.erase(normals.begin() +
                  static_cast<std::ptrdiff_t>(fit.most_negative));
    fit = fit_multipliers(normals, g);
    if (!fit.ok) break;
    if (fit.error() < best.error()) best = fit;
  }
  report.stationarity_residual = best.residual;
  report.min_multiplier = best.min_multiplier;
  return report;
}

}  // namespace ripple::opt
