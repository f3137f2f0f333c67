#include "core/tradeoff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sdf/analysis.hpp"
#include "util/assert.hpp"

namespace ripple::core {

util::Result<TradeoffCurve> trace_tradeoff(const sdf::PipelineSpec& pipeline,
                                           const EnforcedWaitsConfig& enforced_config,
                                           const MonolithicConfig& monolithic_config,
                                           Cycles tau0,
                                           const TradeoffConfig& config) {
  using R = util::Result<TradeoffCurve>;
  RIPPLE_REQUIRE(config.samples >= 2, "need at least two samples");
  RIPPLE_REQUIRE(tau0 > 0.0, "tau0 must be positive");

  const EnforcedWaitsStrategy enforced(pipeline, enforced_config);
  const MonolithicStrategy monolithic(pipeline, monolithic_config);

  const Cycles floor_deadline = enforced.min_feasible_deadline(tau0);
  if (std::isinf(floor_deadline)) {
    return R::failure("infeasible",
                      "arrival rate beyond the enforced-waits capacity");
  }

  TradeoffCurve curve;
  curve.tau0 = tau0;
  curve.enforced_floor = sdf::unconstrained_active_fraction(pipeline, tau0);

  // Upper end of the sweep: explicit, or grow geometrically until the
  // optimum sits within floor_tolerance of the floor.
  Cycles max_deadline = config.max_deadline;
  if (max_deadline <= 0.0) {
    max_deadline = floor_deadline * 2.0;
    for (int grow = 0; grow < 40; ++grow) {
      auto solved = enforced.solve(tau0, max_deadline);
      if (solved.ok() && solved.value().predicted_active_fraction -
                                 curve.enforced_floor <
                             config.floor_tolerance) {
        break;
      }
      max_deadline *= 1.6;
    }
  }
  max_deadline = std::max(max_deadline, floor_deadline * 1.01);

  // Geometric spacing: the interesting curvature is near the floor deadline.
  const double ratio =
      std::pow(max_deadline / floor_deadline,
               1.0 / static_cast<double>(config.samples - 1));
  std::vector<Cycles> deadlines(config.samples);
  Cycles deadline = floor_deadline;
  for (std::size_t s = 0; s < config.samples; ++s, deadline *= ratio) {
    deadlines[s] = deadline;
  }
  // The monolithic blocks of every sample come from one run walk.
  const std::vector<std::int64_t> blocks = monolithic.solve_row(tau0, deadlines);
  for (std::size_t s = 0; s < config.samples; ++s) {
    TradeoffPoint point;
    point.deadline = deadlines[s];
    if (auto solved = enforced.solve(tau0, point.deadline); solved.ok()) {
      point.enforced_feasible = true;
      point.enforced_active_fraction = solved.value().predicted_active_fraction;
    }
    if (blocks[s] > 0) {
      point.monolithic_feasible = true;
      point.monolithic_active_fraction =
          monolithic.active_fraction(blocks[s], tau0);
    }
    curve.points.push_back(point);
  }

  // Knee: max perpendicular distance from the chord between the first and
  // last feasible enforced points, in normalized coordinates.
  std::ptrdiff_t first = -1;
  std::ptrdiff_t last = -1;
  for (std::size_t i = 0; i < curve.points.size(); ++i) {
    if (!curve.points[i].enforced_feasible) continue;
    if (first < 0) first = static_cast<std::ptrdiff_t>(i);
    last = static_cast<std::ptrdiff_t>(i);
  }
  if (first >= 0 && last - first >= 2) {
    const auto& a = curve.points[static_cast<std::size_t>(first)];
    const auto& b = curve.points[static_cast<std::size_t>(last)];
    const double dx = b.deadline - a.deadline;
    const double dy =
        b.enforced_active_fraction - a.enforced_active_fraction;
    double best = -1.0;
    for (std::ptrdiff_t i = first + 1; i < last; ++i) {
      const auto& p = curve.points[static_cast<std::size_t>(i)];
      if (!p.enforced_feasible) continue;
      // Normalized distance from the chord.
      const double nx = (p.deadline - a.deadline) / dx;
      const double ny = dy == 0.0
                            ? 0.0
                            : (p.enforced_active_fraction -
                               a.enforced_active_fraction) /
                                  dy;
      // Convex decreasing: interior points sit below the chord (ny > nx);
      // the knee is the one farthest below.
      const double distance = ny - nx;
      if (distance > best) {
        best = distance;
        curve.knee_index = i;
      }
    }
  }
  return curve;
}

}  // namespace ripple::core
