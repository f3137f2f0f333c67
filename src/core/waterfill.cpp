#include "core/waterfill.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace ripple::core {

namespace {

/// One merged run of chain-linked nodes [first, last] with representative
/// y = x_last; member j has x_j = ratio[j - first] * y.
struct Block {
  std::size_t first = 0;
  std::size_t last = 0;
  std::vector<double> ratio;  ///< r_j, with r_last = 1
  double t = 0.0;             ///< T_B = sum t_j / r_j
  double b = 0.0;             ///< B_B = sum b_j r_j
  double lower = 0.0;         ///< max_j t_j / r_j
  double upper = 0.0;         ///< rate cap folded through r_first, or inf
};

}  // namespace

util::Result<WaterfillSolution> waterfill_solve_chained(
    const sdf::PipelineSpec& pipeline, const std::vector<double>& b,
    Cycles tau0, Cycles deadline,
    const std::vector<std::uint8_t>& chain_active) {
  using R = util::Result<WaterfillSolution>;
  const std::size_t n = pipeline.size();
  RIPPLE_REQUIRE(b.size() == n, "one b multiplier per node");
  RIPPLE_REQUIRE(chain_active.size() == n, "one chain flag per node");
  RIPPLE_REQUIRE(tau0 > 0.0 && deadline > 0.0, "parameters must be positive");

  const double rate_cap = static_cast<double>(pipeline.simd_width()) * tau0;

  // Merge nodes into blocks along the active chain edges. Edge i couples
  // x_{i-1} = g_{i-1} x_i and only exists for positive gain.
  std::vector<Block> blocks;
  for (std::size_t i = 0; i < n;) {
    std::size_t last = i;
    while (last + 1 < n && chain_active[last + 1] != 0 &&
           pipeline.mean_gain(last) > 0.0) {
      ++last;
    }
    Block block;
    block.first = i;
    block.last = last;
    block.ratio.assign(last - i + 1, 1.0);
    for (std::size_t j = last; j-- > i;) {
      block.ratio[j - i] = pipeline.mean_gain(j) * block.ratio[j - i + 1];
    }
    for (std::size_t j = i; j <= last; ++j) {
      const double r = block.ratio[j - i];
      block.t += pipeline.service_time(j) / r;
      block.b += b[j] * r;
      block.lower = std::max(block.lower, pipeline.service_time(j) / r);
    }
    block.upper = block.first == 0 ? rate_cap / block.ratio[0] : kUnboundedCycles;
    blocks.push_back(std::move(block));
    i = last + 1;
  }

  // Relaxed feasibility: y = l must fit the rate cap and the budget.
  double budget_at_lower = 0.0;
  for (const Block& block : blocks) {
    if (block.lower > block.upper) {
      return R::failure("infeasible", "service time exceeds the rate cap");
    }
    budget_at_lower += block.b * block.lower;
  }
  if (budget_at_lower > deadline) {
    return R::failure("infeasible", "deadline below the minimal budget");
  }

  const std::size_t k = blocks.size();
  auto y_of_lambda = [&](double lambda, std::vector<double>& y) {
    double budget = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      const double unclamped = std::sqrt(blocks[j].t / (lambda * blocks[j].b));
      y[j] = std::clamp(unclamped, blocks[j].lower, blocks[j].upper);
      budget += blocks[j].b * y[j];
    }
    return budget;
  };

  // Bracket lambda: budget usage is strictly decreasing in lambda between
  // the clamps. Find lo with usage > D and hi with usage <= D.
  std::vector<double> y(k);
  double lambda_lo = 1e-30;
  double lambda_hi = 1.0;
  while (y_of_lambda(lambda_hi, y) > deadline) lambda_hi *= 16.0;
  double lambda = lambda_hi;
  if (y_of_lambda(lambda_lo, y) <= deadline) {
    // Degenerate: even lambda -> 0 keeps usage <= D (every y at its upper
    // clamp; only possible when all bounds are finite, i.e. a single block
    // containing node 0). The budget constraint is slack and y is already
    // set to the clamps.
    lambda = 0.0;
  } else {
    for (int iter = 0; iter < 500; ++iter) {
      const double mid = std::sqrt(lambda_lo * lambda_hi);  // geometric mean
      if (y_of_lambda(mid, y) > deadline) lambda_lo = mid;
      else lambda_hi = mid;
      if (lambda_hi / lambda_lo < 1.0 + 1e-15) break;
    }
    lambda = lambda_hi;
    (void)y_of_lambda(lambda, y);
  }

  WaterfillSolution solution;
  solution.firing_intervals.resize(n);
  for (std::size_t j = 0; j < k; ++j) {
    const Block& block = blocks[j];
    for (std::size_t i = block.first; i <= block.last; ++i) {
      solution.firing_intervals[i] = block.ratio[i - block.first] * y[j];
    }
  }
  solution.lambda = lambda;

  double objective = 0.0;
  for (NodeIndex i = 0; i < n; ++i) {
    objective += pipeline.service_time(i) / solution.firing_intervals[i];
  }
  solution.active_fraction = objective / static_cast<double>(n);

  const std::vector<Cycles>& x = solution.firing_intervals;
  solution.chain_feasible = true;
  for (NodeIndex i = 1; i < n; ++i) {
    const double g = pipeline.mean_gain(i - 1);
    if (g > 0.0 && x[i] * g > x[i - 1] * (1.0 + 1e-12)) {
      solution.chain_feasible = false;
      break;
    }
  }
  return solution;
}

util::Result<WaterfillSolution> waterfill_solve_pooled(
    const sdf::PipelineSpec& pipeline, const std::vector<double>& b,
    Cycles tau0, Cycles deadline) {
  using R = util::Result<WaterfillSolution>;
  const std::size_t n = pipeline.size();
  RIPPLE_REQUIRE(b.size() == n, "one b multiplier per node");
  RIPPLE_REQUIRE(tau0 > 0.0 && deadline > 0.0, "parameters must be positive");

  // z_i = G_i x_i with G the cumulative gain, reset to 1 after a zero-gain
  // edge: the chain constraint g_{i-1} x_i <= x_{i-1} becomes z_i <= z_{i-1},
  // t_i / x_i = T_i / z_i and b_i x_i = B_i z_i, and the bound x_i >= t_i
  // becomes z_i >= T_i.
  std::vector<std::uint8_t> segment_start(n, 1);
  std::vector<double> t(n), budget_weight(n);
  double gain = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && pipeline.mean_gain(i - 1) > 0.0) {
      segment_start[i] = 0;
      gain *= pipeline.mean_gain(i - 1);
    } else {
      gain = 1.0;
    }
    t[i] = pipeline.service_time(i) * gain;
    budget_weight[i] = b[i] / gain;
  }
  const double rate_cap = static_cast<double>(pipeline.simd_width()) * tau0;

  // Pool adjacent violators: push each node as its own pool at its
  // unconstrained optimum, and merge it into the previous pool of its
  // segment while that one sits strictly below it (z must not increase).
  // Merging on equality would activate chain edges the exact solve leaves
  // free, which moves the last bits of the answer.
  struct Pool {
    std::size_t first;     ///< first node; the pool runs to the next one
    double t, b;           ///< sum T and sum B over the pool
    double lower, upper;   ///< max lo and min hi over the pool
    double z;
  };
  std::vector<Pool> pools;
  pools.reserve(n);
  auto pool_at = [&](double lambda) {
    pools.clear();
    for (std::size_t i = 0; i < n; ++i) {
      Pool pool{i, t[i], budget_weight[i], t[i],
                i == 0 ? rate_cap : kUnboundedCycles, 0.0};
      for (;;) {
        pool.z = std::min(
            std::max(std::sqrt(pool.t / (lambda * pool.b)), pool.lower),
            pool.upper);
        if (segment_start[pool.first] != 0 || pools.back().z >= pool.z) break;
        const Pool& previous = pools.back();
        pool.first = previous.first;
        pool.t += previous.t;
        pool.b += previous.b;
        pool.lower = std::max(pool.lower, previous.lower);
        pool.upper = std::min(pool.upper, previous.upper);
        pools.pop_back();
      }
      pools.push_back(pool);
    }
    double budget = 0.0;
    for (const Pool& pool : pools) budget += pool.b * pool.z;
    return budget;
  };

  // Same bracket and bisection as waterfill_solve_chained; budget usage is
  // non-increasing in lambda.
  double lambda_lo = 1e-30;
  double lambda_hi = 1.0;
  while (pool_at(lambda_hi) > deadline) {
    lambda_hi *= 16.0;
    if (!std::isfinite(lambda_hi)) {
      return R::failure("infeasible", "deadline below the minimal budget");
    }
  }
  if (pool_at(lambda_lo) > deadline) {
    for (int iter = 0; iter < 500; ++iter) {
      const double mid = std::sqrt(lambda_lo * lambda_hi);
      if (pool_at(mid) > deadline) lambda_lo = mid;
      else lambda_hi = mid;
      if (lambda_hi / lambda_lo < 1.0 + 1e-15) break;
    }
    (void)pool_at(lambda_hi);
  }

  // The pools are the active chain set; the chained closed form turns it
  // into the returned intervals.
  std::vector<std::uint8_t> chain_active(n, 1);
  for (const Pool& pool : pools) chain_active[pool.first] = 0;
  auto solved =
      waterfill_solve_chained(pipeline, b, tau0, deadline, chain_active);
  if (solved.ok()) solved.value().chain_active = std::move(chain_active);
  return solved;
}

util::Result<WaterfillSolution> waterfill_solve(const sdf::PipelineSpec& pipeline,
                                                const std::vector<double>& b,
                                                Cycles tau0, Cycles deadline) {
  // All chain constraints inactive: every block is a singleton with ratio 1,
  // so the chained solve reduces to the original closed form exactly
  // (multiplying and dividing by r = 1.0 is bit-exact).
  return waterfill_solve_chained(
      pipeline, b, tau0, deadline,
      std::vector<std::uint8_t>(pipeline.size(), 0));
}

}  // namespace ripple::core
