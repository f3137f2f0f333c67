#include "core/monolithic.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/assert.hpp"
#include "util/string_utils.hpp"

namespace ripple::core {

namespace {
/// Hard cap on the block size; generous relative to the paper's parameter
/// space (M <= D * rho0 <= 3.5e5 there).
constexpr std::int64_t kMaxBlockCap = 50'000'000;
}  // namespace

MonolithicStrategy::MonolithicStrategy(sdf::PipelineSpec pipeline,
                                       MonolithicConfig config)
    : pipeline_(std::move(pipeline)), config_(config),
      total_gains_(pipeline_.total_gains()) {
  RIPPLE_REQUIRE(config_.b >= 1.0, "block multiplier b must be at least 1");
  RIPPLE_REQUIRE(config_.S >= 1.0, "worst-case scale S must be at least 1");
  // ceil() in Tbar never rounds down, so Tbar(M) >= M * c exactly.
  service_per_input_floor_ = pipeline_.mean_service_per_input();
}

Cycles MonolithicStrategy::mean_block_service(std::int64_t block_size) const {
  RIPPLE_REQUIRE(block_size > 0, "block size must be positive");
  const double v = static_cast<double>(pipeline_.simd_width());
  Cycles total = 0.0;
  for (NodeIndex i = 0; i < pipeline_.size(); ++i) {
    const double expected_items =
        static_cast<double>(block_size) * total_gains_[i];
    const double firings = std::ceil(expected_items / v);
    total += firings * pipeline_.service_time(i);
  }
  return total;
}

bool MonolithicStrategy::is_block_feasible(std::int64_t block_size, Cycles tau0,
                                           Cycles deadline) const {
  const Cycles tbar = mean_block_service(block_size);
  const double m = static_cast<double>(block_size);
  if (tbar > m * tau0) return false;                        // stability
  const Cycles worst = config_.S * tbar;
  return config_.b * m * tau0 + worst <= deadline;          // deadline
}

double MonolithicStrategy::active_fraction(std::int64_t block_size,
                                           Cycles tau0) const {
  return mean_block_service(block_size) /
         (static_cast<double>(block_size) * tau0);
}

std::int64_t MonolithicStrategy::max_block_size(Cycles tau0,
                                                Cycles deadline) const {
  // Tbar(M) >= M * c, so the deadline b*M*tau0 + S*Tbar(M) <= D forces
  // M <= D / (b*tau0 + S*c). Only deadline-infeasible blocks are cut.
  const double cap =
      deadline / (config_.b * tau0 + config_.S * service_per_input_floor_);
  if (cap < 1.0) return 0;
  return std::min<std::int64_t>(static_cast<std::int64_t>(cap), kMaxBlockCap);
}

std::vector<std::int64_t> MonolithicStrategy::solve_row(
    Cycles tau0, std::span<const Cycles> deadlines) const {
  RIPPLE_REQUIRE(tau0 > 0.0, "tau0 must be positive");
  std::vector<std::int64_t> blocks(deadlines.size(), 0);
  // Tbar(M) >= M * c, so tau0 < c makes every block unstable.
  if (deadlines.empty() || tau0 < service_per_input_floor_) return blocks;

  std::vector<std::size_t> order(deadlines.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return deadlines[a] < deadlines[b];
  });
  // max_block_size grows with D: no deadline of the row admits a block
  // past the largest deadline's cap.
  const std::int64_t last_block = max_block_size(tau0, deadlines[order.back()]);

  const double v = static_cast<double>(pipeline_.simd_width());
  // The exact expressions of mean_block_service and is_block_feasible, so
  // that run boundaries and deadline checks agree with them bit for bit.
  const auto firings = [&](std::int64_t m, NodeIndex i) {
    return std::ceil(static_cast<double>(m) * total_gains_[i] / v);
  };
  const auto deadline_side = [&](std::int64_t m, Cycles tbar) {
    return config_.b * static_cast<double>(m) * tau0 + config_.S * tbar;
  };
  // Largest m in [first, last] with ok(m), from a closed-form estimate
  // corrected by unit steps; ok must hold at first and switch from true to
  // false at most once.
  const auto last_where = [](std::int64_t first, std::int64_t last,
                             double estimate, const auto& ok) {
    std::int64_t m = estimate >= static_cast<double>(last)
                         ? last
                         : std::max(first, static_cast<std::int64_t>(
                                               std::max(estimate, 0.0)));
    while (m < last && ok(m + 1)) ++m;
    while (m > first && !ok(m)) --m;
    return m;
  };

  // The current run [start, end] (clipped to last_block) and its Tbar;
  // start > last_block once every run is walked.
  std::int64_t start = 0;
  std::int64_t end = 0;
  Cycles tbar = 0.0;
  const auto enter_run = [&](std::int64_t first) {
    start = first;
    if (start > last_block) return;
    tbar = mean_block_service(start);
    end = last_block;
    for (NodeIndex i = 0; i < pipeline_.size(); ++i) {
      if (total_gains_[i] <= 0.0) continue;
      const double k = firings(start, i);
      end = last_where(start, end, std::floor(k * v / total_gains_[i]),
                       [&](std::int64_t m) { return firings(m, i) <= k; });
    }
  };
  enter_run(1);

  // First strict minimum over the runs that fit the deadlines so far whole.
  std::int64_t best = 0;
  double best_value = 0.0;
  for (const std::size_t index : order) {
    const Cycles deadline = deadlines[index];
    const std::int64_t hi = max_block_size(tau0, deadline);
    // A run fits whole when its last block is under the cap and meets the
    // deadline; that block is then its candidate at every later deadline.
    // Tbar is constant on the run, so tbar is Tbar(end) exactly.
    while (start <= last_block && end <= hi &&
           deadline_side(end, tbar) <= deadline) {
      const double m = static_cast<double>(end);
      if (tbar <= m * tau0) {  // stability
        const double value = tbar / (m * tau0);
        if (best == 0 || value < best_value) {
          best = end;
          best_value = value;
        }
      }
      enter_run(end + 1);
    }
    std::int64_t block = best;
    // The next run fits in part when its first block meets the deadline:
    // its candidate is its largest block that does. Every later run starts
    // past the cap or misses the deadline at its first block.
    if (start <= hi && deadline_side(start, tbar) <= deadline) {
      const std::int64_t partial = last_where(
          start, std::min(end, hi),
          std::floor((deadline - config_.S * tbar) / (config_.b * tau0)),
          [&](std::int64_t m) { return deadline_side(m, tbar) <= deadline; });
      if (is_block_feasible(partial, tau0, deadline) &&
          (best == 0 || active_fraction(partial, tau0) < best_value)) {
        block = partial;
      }
    }
    blocks[index] = block;
  }
  return blocks;
}

bool MonolithicStrategy::is_feasible(Cycles tau0, Cycles deadline) const {
  return solve_row(tau0, std::span<const Cycles>(&deadline, 1)).front() > 0;
}

MonolithicSchedule MonolithicStrategy::make_schedule(std::int64_t block_size,
                                                     Cycles tau0) const {
  MonolithicSchedule schedule;
  schedule.block_size = block_size;
  schedule.mean_block_service = mean_block_service(block_size);
  schedule.worst_block_service = config_.S * schedule.mean_block_service;
  schedule.predicted_active_fraction = active_fraction(block_size, tau0);
  schedule.worst_case_latency =
      config_.b * static_cast<double>(block_size) * tau0 +
      schedule.worst_block_service;
  return schedule;
}

util::Result<MonolithicSchedule> MonolithicStrategy::solve(
    Cycles tau0, Cycles deadline) const {
  using R = util::Result<MonolithicSchedule>;
  RIPPLE_REQUIRE(tau0 > 0.0, "tau0 must be positive");
  RIPPLE_REQUIRE(deadline > 0.0, "deadline must be positive");

  if (tau0 < service_per_input_floor_) {
    // Tbar(M) >= M * c: below the asymptotic service floor no block is ever
    // stable.
    return R::failure("infeasible",
                      "unstable at any block: tau0 = " +
                          util::format_double(tau0, 3) +
                          " is below the per-input service floor " +
                          util::format_double(service_per_input_floor_, 3));
  }
  const std::int64_t hi = max_block_size(tau0, deadline);
  if (hi < 1) {
    return R::failure("infeasible",
                      "deadline admits no block: b*tau0 = " +
                          util::format_double(config_.b * tau0, 3) +
                          " exceeds D = " + util::format_double(deadline, 3));
  }
  const std::int64_t block =
      solve_row(tau0, std::span<const Cycles>(&deadline, 1)).front();
  if (block == 0) {
    return R::failure("infeasible",
                      "no block size in [1, " + std::to_string(hi) +
                          "] satisfies stability + deadline");
  }
  return make_schedule(block, tau0);
}

}  // namespace ripple::core
