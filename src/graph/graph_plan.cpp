#include "graph/graph_plan.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "opt/barrier.hpp"
#include "util/assert.hpp"
#include "util/string_utils.hpp"

namespace ripple::graph {

GraphPlanConfig GraphPlanConfig::optimistic(const GraphSpec& graph) {
  GraphPlanConfig config;
  config.b.resize(graph.size(), 1.0);
  for (NodeIndex u = 0; u < graph.size(); ++u) {
    double heaviest = 0.0;
    for (EdgeIndex e : graph.out_edges(u)) {
      heaviest = std::max(heaviest, graph.edge(e).mean_gain());
    }
    config.b[u] = std::max(1.0, std::ceil(heaviest));
  }
  return config;
}

GraphPlanner::GraphPlanner(GraphSpec graph, GraphPlanConfig config)
    : graph_(std::move(graph)), config_(std::move(config)) {
  if (config_.b.size() != graph_.size()) {
    throw std::logic_error("GraphPlanConfig needs one multiplier per node");
  }
  for (double b : config_.b) {
    if (b < 1.0) {
      throw std::logic_error(
          "queue multipliers must be >= 1 (an item waits at least one firing)");
    }
  }
  minimal_intervals_ = graph_.minimal_firing_intervals();
  minimal_budget_ = graph_.max_path_budget(config_.b, minimal_intervals_);

  if (graph_.is_linear()) {
    // Chain order: walk the unique path from the source so the lowered
    // pipeline's position p maps back to graph node chain_order_[p].
    chain_order_.reserve(graph_.size());
    NodeIndex current = graph_.source();
    for (std::size_t step = 0; step < graph_.size(); ++step) {
      chain_order_.push_back(current);
      if (graph_.out_edges(current).empty()) break;
      current = graph_.edge(graph_.out_edges(current)[0]).to;
    }
    auto lowered = graph_.lower_to_pipeline();
    RIPPLE_REQUIRE(lowered.ok(), "linear graph must lower to a pipeline");
    core::EnforcedWaitsConfig chain_config;
    chain_config.b.reserve(chain_order_.size());
    for (NodeIndex u : chain_order_) chain_config.b.push_back(config_.b[u]);
    linear_ = std::make_unique<core::EnforcedWaitsStrategy>(
        std::move(lowered).take(), std::move(chain_config));
  } else {
    auto paths = graph_.enumerate_paths();
    if (paths.ok()) {
      paths_ = std::move(paths).take();
      paths_enumerable_ = true;
    }
  }
}

bool GraphPlanner::is_feasible(Cycles tau0, Cycles deadline) const {
  if (linear_) return linear_->is_feasible(tau0, deadline);
  const double rate_cap = static_cast<double>(graph_.simd_width()) * tau0;
  if (minimal_intervals_[graph_.source()] > rate_cap) return false;
  return minimal_budget_ <= deadline;
}

Cycles GraphPlanner::min_feasible_deadline(Cycles tau0) const {
  if (linear_) return linear_->min_feasible_deadline(tau0);
  const double rate_cap = static_cast<double>(graph_.simd_width()) * tau0;
  if (minimal_intervals_[graph_.source()] > rate_cap) return kUnboundedCycles;
  return minimal_budget_;
}

Cycles GraphPlanner::min_feasible_tau0(Cycles deadline) const {
  if (linear_) return linear_->min_feasible_tau0(deadline);
  if (minimal_budget_ > deadline) return kUnboundedCycles;
  return minimal_intervals_[graph_.source()] /
         static_cast<double>(graph_.simd_width());
}

double GraphPlanner::active_fraction(
    const std::vector<Cycles>& firing_intervals) const {
  RIPPLE_REQUIRE(firing_intervals.size() == graph_.size(),
                 "one interval per node required");
  double sum = 0.0;
  for (NodeIndex u = 0; u < graph_.size(); ++u) {
    sum += graph_.service_time(u) / firing_intervals[u];
  }
  return sum / static_cast<double>(graph_.size());
}

util::Result<opt::ConvexProblem> GraphPlanner::build_problem(
    Cycles tau0, Cycles deadline) const {
  using R = util::Result<opt::ConvexProblem>;
  if (!linear_ && !paths_enumerable_) {
    return R::failure("too_many_paths",
                      "graph '" + graph_.name() +
                          "' has too many source->sink paths to enumerate "
                          "per-path deadline budgets");
  }
  const std::size_t n = graph_.size();
  const double inv_n = 1.0 / static_cast<double>(n);
  std::vector<Cycles> service(n);
  for (NodeIndex u = 0; u < n; ++u) service[u] = graph_.service_time(u);

  opt::ConvexProblem problem;
  problem.objective = [service, inv_n](const linalg::Vector& x) {
    double sum = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) sum += service[i] / x[i];
    return sum * inv_n;
  };
  problem.gradient = [service, inv_n](const linalg::Vector& x) {
    linalg::Vector g(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      g[i] = -inv_n * service[i] / (x[i] * x[i]);
    }
    return g;
  };
  problem.hessian = [service, inv_n](const linalg::Vector& x) {
    linalg::Matrix h(x.size(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      h(i, i) = 2.0 * inv_n * service[i] / (x[i] * x[i] * x[i]);
    }
    return h;
  };

  // Bounds: x_u >= t_u always; the source additionally capped by the
  // arrival-rate constraint x_source <= v * tau0.
  problem.lower_bounds = linalg::Vector(service.begin(), service.end());
  problem.upper_bounds = linalg::Vector(n, opt::kInf);
  problem.upper_bounds[graph_.source()] =
      static_cast<double>(graph_.simd_width()) * tau0;

  // Per-edge stability: g_e * x_v - x_u <= 0.
  for (EdgeIndex e = 0; e < graph_.edge_count(); ++e) {
    const GraphEdgeSpec& edge = graph_.edge(e);
    const double g = edge.mean_gain();
    if (g <= 0.0) continue;  // zero-gain edge carries no items: no constraint
    opt::LinearInequality stability;
    stability.coefficients = linalg::zeros(n);
    stability.coefficients[edge.to] = g;
    stability.coefficients[edge.from] = -1.0;
    stability.rhs = 0.0;
    stability.label = "edge[" + graph_.node(edge.from).name + "->" +
                      graph_.node(edge.to).name + "]";
    problem.constraints.push_back(std::move(stability));
  }

  // Per-path deadline budgets: sum_{i in p} b_i x_i <= D. On a linear graph
  // there is one path and this is exactly the chain problem's budget row.
  if (linear_) {
    opt::LinearInequality budget;
    budget.coefficients = linalg::Vector(config_.b.begin(), config_.b.end());
    budget.rhs = deadline;
    budget.label = "deadline";
    problem.constraints.push_back(std::move(budget));
  } else {
    for (std::size_t k = 0; k < paths_.size(); ++k) {
      opt::LinearInequality budget;
      budget.coefficients = linalg::zeros(n);
      for (NodeIndex u : paths_[k].nodes) {
        budget.coefficients[u] = config_.b[u];
      }
      budget.rhs = deadline;
      budget.label = "deadline[" + std::to_string(k) + "]";
      problem.constraints.push_back(std::move(budget));
    }
  }
  return problem;
}

linalg::Vector GraphPlanner::interior_start(Cycles tau0,
                                            Cycles deadline) const {
  const std::size_t n = graph_.size();
  const double rate_cap = static_cast<double>(graph_.simd_width()) * tau0;

  // Reverse-topo construction: x_u = max(t_u, max_e g_e x_v) * (1 + eps)
  // makes every bound and edge constraint strictly slack; shrink eps until
  // the rate cap and every path budget are also strictly satisfied.
  for (double eps = 1e-2; eps >= 1e-13; eps *= 0.25) {
    linalg::Vector x(n, 0.0);
    const std::vector<NodeIndex>& topo = graph_.topo_order();
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      const NodeIndex u = *it;
      double floor = graph_.service_time(u);
      for (EdgeIndex e : graph_.out_edges(u)) {
        floor = std::max(floor, graph_.edge(e).mean_gain() * x[graph_.edge(e).to]);
      }
      x[u] = floor * (1.0 + eps);
    }
    const Cycles budget = graph_.max_path_budget(
        config_.b, std::vector<Cycles>(x.begin(), x.end()));
    if (x[graph_.source()] < rate_cap && budget < deadline) return x;
  }
  return {};
}

linalg::Vector GraphPlanner::per_path_start(
    Cycles tau0, Cycles deadline, const opt::ConvexProblem& problem) const {
  // Solve each root->sink path's chain problem and take the per-node max.
  // The combination can violate a path budget (maxima only raise sums), so
  // it is only used when strictly interior for the full problem.
  linalg::Vector combined(graph_.size(), 0.0);
  std::vector<char> touched(graph_.size(), 0);
  for (const GraphPath& path : paths_) {
    sdf::PipelineBuilder builder(graph_.name() + ".path");
    builder.simd_width(graph_.simd_width());
    core::EnforcedWaitsConfig chain_config;
    for (std::size_t p = 0; p < path.nodes.size(); ++p) {
      const NodeIndex u = path.nodes[p];
      dist::GainPtr gain = p < path.edges.size()
                               ? graph_.edge(path.edges[p]).gain
                               : std::make_shared<dist::DeterministicGain>(1);
      builder.add_node(graph_.node(u).name, graph_.service_time(u),
                       std::move(gain));
      chain_config.b.push_back(config_.b[u]);
    }
    auto pipeline = builder.build();
    if (!pipeline.ok()) continue;
    core::EnforcedWaitsStrategy chain(std::move(pipeline).take(), chain_config);

    auto solved = chain.solve(tau0, deadline);
    if (!solved.ok()) continue;
    for (std::size_t p = 0; p < path.nodes.size(); ++p) {
      const NodeIndex u = path.nodes[p];
      combined[u] = std::max(combined[u], solved.value().firing_intervals[p]);
      touched[u] = 1;
    }
  }
  for (char t : touched) {
    if (!t) return {};
  }
  if (problem.min_slack(combined) <= 0.0) return {};
  return combined;
}

GraphSchedule GraphPlanner::make_schedule(
    std::vector<Cycles> intervals, const opt::ConvexProblem& problem) const {
  GraphSchedule schedule;
  schedule.firing_intervals = std::move(intervals);
  schedule.waits.resize(graph_.size());
  for (NodeIndex u = 0; u < graph_.size(); ++u) {
    schedule.waits[u] = std::max(
        0.0, schedule.firing_intervals[u] - graph_.service_time(u));
  }
  schedule.deadline_budget_used =
      graph_.max_path_budget(config_.b, schedule.firing_intervals);
  schedule.predicted_active_fraction =
      active_fraction(schedule.firing_intervals);
  const Cycles max_interval = *std::max_element(
      schedule.firing_intervals.begin(), schedule.firing_intervals.end());
  schedule.kkt = opt::check_kkt(
      problem,
      linalg::Vector(schedule.firing_intervals.begin(),
                     schedule.firing_intervals.end()),
      /*active_tolerance=*/1e-6 * (1.0 + max_interval));
  return schedule;
}

util::Result<GraphSchedule> GraphPlanner::solve(Cycles tau0,
                                                Cycles deadline) const {
  using R = util::Result<GraphSchedule>;
  RIPPLE_REQUIRE(tau0 > 0.0, "tau0 must be positive");
  RIPPLE_REQUIRE(deadline > 0.0, "deadline must be positive");

  if (linear_) {
    // Chain delegation: bit-identical to the paper-path solver. Results
    // come back in chain order; scatter them to graph node indices.
    auto solved = linear_->solve(tau0, deadline);
    if (!solved.ok()) return R(solved.error());
    const core::EnforcedWaitsSchedule& chain = solved.value();
    GraphSchedule schedule;
    schedule.lowered_linear = true;
    schedule.waits.resize(graph_.size());
    schedule.firing_intervals.resize(graph_.size());
    for (std::size_t p = 0; p < chain_order_.size(); ++p) {
      schedule.waits[chain_order_[p]] = chain.waits[p];
      schedule.firing_intervals[chain_order_[p]] = chain.firing_intervals[p];
    }
    schedule.predicted_active_fraction = chain.predicted_active_fraction;
    schedule.deadline_budget_used = chain.deadline_budget_used;
    schedule.kkt = chain.kkt;
    return schedule;
  }

  const double rate_cap = static_cast<double>(graph_.simd_width()) * tau0;
  if (minimal_intervals_[graph_.source()] > rate_cap) {
    return R::failure(
        "infeasible",
        "arrival-rate constraint violated: minimal x_source = " +
            util::format_double(minimal_intervals_[graph_.source()], 3) +
            " exceeds v*tau0 = " + util::format_double(rate_cap, 3));
  }
  if (minimal_budget_ > deadline) {
    return R::failure(
        "infeasible",
        "deadline too tight: minimal max-path budget = " +
            util::format_double(minimal_budget_, 3) +
            " exceeds D = " + util::format_double(deadline, 3));
  }

  auto built = build_problem(tau0, deadline);
  if (!built.ok()) return R(built.error());
  const opt::ConvexProblem& problem = built.value();

  // Degenerate feasible region: the minimal point L is the unique feasible
  // point (every feasible x dominates L componentwise).
  linalg::Vector start = interior_start(tau0, deadline);
  if (start.empty()) {
    return make_schedule(minimal_intervals_, problem);
  }

  // Start from the per-path chain solves when the combination stays
  // strictly interior; otherwise fall back to the generic interior point.
  linalg::Vector path_start = per_path_start(tau0, deadline, problem);
  auto solved =
      opt::barrier_minimize(problem, path_start.empty() ? start : path_start);
  if (!solved.ok() && !path_start.empty()) {
    solved = opt::barrier_minimize(problem, start);
  }
  if (!solved.ok()) {
    return R::failure(solved.error().code,
                      "barrier solve failed: " + solved.error().message);
  }
  return make_schedule(
      std::vector<Cycles>(solved.value().x.begin(), solved.value().x.end()),
      problem);
}

}  // namespace ripple::graph
