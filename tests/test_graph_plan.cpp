#include "graph/graph_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "blast/canonical.hpp"
#include "dist/gain.hpp"
#include "graph/scenarios.hpp"

namespace ripple::graph {
namespace {

using dist::make_bernoulli;
using dist::make_deterministic;

/// The canonical 4-node BLAST chain expressed as a linear GraphSpec: node i's
/// chain gain becomes edge (i, i+1)'s gain, sharing the same distribution
/// objects so delegation is comparing like with like.
GraphSpec blast_chain_graph() {
  const sdf::PipelineSpec pipeline = blast::canonical_blast_pipeline();
  GraphBuilder builder(pipeline.name());
  builder.simd_width(pipeline.simd_width());
  for (NodeIndex i = 0; i < pipeline.size(); ++i) {
    builder.add_node(pipeline.node(i).name, NodeKind::kSiso,
                     pipeline.service_time(i));
  }
  for (NodeIndex i = 0; i + 1 < pipeline.size(); ++i) {
    builder.add_edge(i, i + 1, pipeline.node(i).gain);
  }
  auto built = builder.build();
  EXPECT_TRUE(built.ok()) << built.error().message;
  return std::move(built).take();
}

/// Branching fixture sized for the solver: a diamond whose tee halves the
/// stream (bern 0.5 into the tee) with deterministic unit edges below.
GraphSpec solver_diamond() {
  auto built = GraphBuilder("solver_diamond")
                   .simd_width(16)
                   .add_node("src", NodeKind::kSiso, 100.0)
                   .add_node("tee", NodeKind::kSimoTee, 20.0)
                   .add_node("a", NodeKind::kSiso, 50.0)
                   .add_node("b", NodeKind::kSiso, 80.0)
                   .add_node("merge", NodeKind::kMisoElementwise, 40.0)
                   .add_node("snk", NodeKind::kSiso, 60.0)
                   .add_edge(0, 1, make_bernoulli(0.5))
                   .add_edge(1, 2, make_deterministic(1))
                   .add_edge(1, 3, make_deterministic(1))
                   .add_edge(2, 4, make_deterministic(1))
                   .add_edge(3, 4, make_deterministic(1))
                   .add_edge(4, 5, make_deterministic(1))
                   .build();
  EXPECT_TRUE(built.ok()) << built.error().message;
  return std::move(built).take();
}

TEST(Config, OptimisticUsesHeaviestOutEdge) {
  auto built = GraphBuilder("wide")
                   .simd_width(8)
                   .add_node("src", NodeKind::kSiso, 10.0)
                   .add_node("tee", NodeKind::kSimoTee, 2.0)
                   .add_node("a", NodeKind::kSiso, 5.0)
                   .add_node("b", NodeKind::kSiso, 8.0)
                   .add_node("merge", NodeKind::kMisoElementwise, 4.0)
                   .add_node("snk", NodeKind::kSiso, 6.0)
                   .add_edge(0, 1, make_deterministic(1))
                   .add_edge(1, 2, make_deterministic(2))
                   .add_edge(1, 3, make_deterministic(2))
                   .add_edge(2, 4, make_deterministic(1))
                   .add_edge(3, 4, make_deterministic(1))
                   .add_edge(4, 5, make_deterministic(1))
                   .build();
  ASSERT_TRUE(built.ok()) << built.error().message;
  const auto config = GraphPlanConfig::optimistic(built.value());
  ASSERT_EQ(config.b.size(), 6u);
  EXPECT_DOUBLE_EQ(config.b[0], 1.0);
  EXPECT_DOUBLE_EQ(config.b[1], 2.0);  // heaviest out-edge gain 2
  EXPECT_DOUBLE_EQ(config.b[2], 1.0);
  EXPECT_DOUBLE_EQ(config.b[3], 1.0);
  EXPECT_DOUBLE_EQ(config.b[4], 1.0);
  EXPECT_DOUBLE_EQ(config.b[5], 1.0);  // sink
}

TEST(Planner, RejectsMalformedB) {
  const GraphSpec graph = solver_diamond();
  EXPECT_THROW(GraphPlanner(graph, GraphPlanConfig{{1.0}}), std::logic_error);
  EXPECT_THROW(
      GraphPlanner(graph, GraphPlanConfig{{1.0, 0.5, 1.0, 1.0, 1.0, 1.0}}),
      std::logic_error);
}

TEST(LinearDelegation, SolvesBitIdenticalToChainSolver) {
  const GraphSpec graph = blast_chain_graph();
  const std::vector<double> b = blast::paper_calibrated_b();
  const GraphPlanner planner(graph, GraphPlanConfig{b});
  EXPECT_TRUE(planner.delegates_to_chain());

  const core::EnforcedWaitsStrategy chain(blast::canonical_blast_pipeline(),
                                          core::EnforcedWaitsConfig{b});
  for (double tau0 : {3.0, 5.0, 10.0, 30.0, 100.0}) {
    for (double deadline : {3e4, 5e4, 1e5, 2e5, 3.5e5}) {
      auto graph_solved = planner.solve(tau0, deadline);
      auto chain_solved = chain.solve(tau0, deadline);
      ASSERT_EQ(graph_solved.ok(), chain_solved.ok())
          << "tau0=" << tau0 << " D=" << deadline;
      if (!graph_solved.ok()) {
        EXPECT_EQ(graph_solved.error().code, chain_solved.error().code);
        EXPECT_EQ(graph_solved.error().message, chain_solved.error().message);
        continue;
      }
      const GraphSchedule& gs = graph_solved.value();
      const core::EnforcedWaitsSchedule& cs = chain_solved.value();
      EXPECT_TRUE(gs.lowered_linear);
      ASSERT_EQ(gs.firing_intervals.size(), cs.firing_intervals.size());
      for (std::size_t i = 0; i < cs.firing_intervals.size(); ++i) {
        EXPECT_EQ(gs.firing_intervals[i], cs.firing_intervals[i])
            << "node " << i << " tau0=" << tau0 << " D=" << deadline;
        EXPECT_EQ(gs.waits[i], cs.waits[i]) << "node " << i;
      }
      EXPECT_EQ(gs.predicted_active_fraction, cs.predicted_active_fraction);
      EXPECT_EQ(gs.deadline_budget_used, cs.deadline_budget_used);
    }
  }
}

TEST(LinearDelegation, FeasibilityFrontiersMatchChainSolver) {
  const GraphSpec graph = blast_chain_graph();
  const std::vector<double> b = blast::paper_calibrated_b();
  const GraphPlanner planner(graph, GraphPlanConfig{b});
  const core::EnforcedWaitsStrategy chain(blast::canonical_blast_pipeline(),
                                          core::EnforcedWaitsConfig{b});
  for (double tau0 : {1.0, 2.9, 3.0, 20.0, 100.0}) {
    EXPECT_EQ(planner.min_feasible_deadline(tau0),
              chain.min_feasible_deadline(tau0))
        << tau0;
    for (double deadline : {2e4, 5e4, 3.5e5}) {
      EXPECT_EQ(planner.is_feasible(tau0, deadline),
                chain.is_feasible(tau0, deadline))
          << tau0 << " " << deadline;
    }
  }
  for (double deadline : {2e4, 1e5, 3.5e5}) {
    EXPECT_EQ(planner.min_feasible_tau0(deadline),
              chain.min_feasible_tau0(deadline))
        << deadline;
  }
}

TEST(DagSolve, ScheduleSatisfiesEveryConstraintFamily) {
  const GraphSpec graph = solver_diamond();
  const GraphPlanner planner(graph, GraphPlanConfig::optimistic(graph));
  EXPECT_FALSE(planner.delegates_to_chain());

  const double tau0 = 20.0;
  const double deadline = 800.0;
  auto solved = planner.solve(tau0, deadline);
  ASSERT_TRUE(solved.ok()) << solved.error().message;
  const GraphSchedule& schedule = solved.value();
  EXPECT_FALSE(schedule.lowered_linear);
  ASSERT_EQ(schedule.firing_intervals.size(), graph.size());

  // w >= 0 and x = t + w.
  for (NodeIndex u = 0; u < graph.size(); ++u) {
    EXPECT_GE(schedule.waits[u], -1e-9) << u;
    EXPECT_NEAR(schedule.firing_intervals[u],
                graph.service_time(u) + schedule.waits[u], 1e-9)
        << u;
  }
  // Rate constraint at the source.
  EXPECT_LE(schedule.firing_intervals[graph.source()],
            graph.simd_width() * tau0 * (1.0 + 1e-6));
  // Per-edge stability g_e * x_v <= x_u.
  for (EdgeIndex e = 0; e < graph.edge_count(); ++e) {
    const GraphEdgeSpec& edge = graph.edge(e);
    EXPECT_LE(edge.mean_gain() * schedule.firing_intervals[edge.to],
              schedule.firing_intervals[edge.from] * (1.0 + 1e-6))
        << "edge " << e;
  }
  // Max-path deadline budget, reported and honored.
  const Cycles budget = graph.max_path_budget(
      planner.config().b, schedule.firing_intervals);
  EXPECT_NEAR(schedule.deadline_budget_used, budget, 1e-6 * (1.0 + budget));
  EXPECT_LE(schedule.deadline_budget_used, deadline * (1.0 + 1e-9));
  // Certified optimum.
  EXPECT_TRUE(schedule.kkt.satisfied(1e-3))
      << "stationarity " << schedule.kkt.stationarity_residual;
  EXPECT_NEAR(schedule.predicted_active_fraction,
              planner.active_fraction(schedule.firing_intervals), 1e-12);
}

TEST(DagSolve, ActiveFractionDecreasesWithDeadline) {
  const GraphSpec graph = solver_diamond();
  const GraphPlanner planner(graph, GraphPlanConfig::optimistic(graph));
  double previous = 1.0;
  for (double deadline : {400.0, 600.0, 900.0, 1400.0, 2200.0}) {
    auto solved = planner.solve(25.0, deadline);
    ASSERT_TRUE(solved.ok()) << deadline << ": " << solved.error().message;
    EXPECT_LE(solved.value().predicted_active_fraction, previous + 1e-9)
        << deadline;
    previous = solved.value().predicted_active_fraction;
  }
}

TEST(DagSolve, FeasibilityFrontierMatchesMinimalBudget) {
  const GraphSpec graph = solver_diamond();
  const GraphPlanner planner(graph, GraphPlanConfig::optimistic(graph));
  // Minimal intervals {100, 80, 60, 80, 60, 60}; with b = 1 everywhere the
  // deepest path (src, tee, b, merge, snk) costs 100+80+80+60+60 = 380.
  const auto& minimal = planner.minimal_intervals();
  ASSERT_EQ(minimal.size(), 6u);
  EXPECT_DOUBLE_EQ(minimal[0], 100.0);
  EXPECT_DOUBLE_EQ(minimal[3], 80.0);
  const Cycles frontier = planner.min_feasible_deadline(20.0);
  EXPECT_DOUBLE_EQ(frontier, 380.0);
  EXPECT_FALSE(planner.is_feasible(20.0, frontier - 1.0));
  EXPECT_TRUE(planner.is_feasible(20.0, frontier + 1.0));
  // Rate alone infeasible: minimal x_src = 100 needs tau0 >= 100/16.
  EXPECT_TRUE(std::isinf(planner.min_feasible_deadline(100.0 / 16.0 - 0.1)));
}

TEST(DagSolve, InfeasibleCellsReturnDiagnostics) {
  const GraphSpec graph = solver_diamond();
  const GraphPlanner planner(graph, GraphPlanConfig::optimistic(graph));
  auto too_fast = planner.solve(1.0, 1e6);
  ASSERT_FALSE(too_fast.ok());
  EXPECT_EQ(too_fast.error().code, "infeasible");
  auto too_tight = planner.solve(50.0, 100.0);
  ASSERT_FALSE(too_tight.ok());
  EXPECT_EQ(too_tight.error().code, "infeasible");
  EXPECT_NE(too_tight.error().message.find("deadline"), std::string::npos);
}

TEST(DagSolve, TightDeadlineLandsOnMinimalIntervals) {
  const GraphSpec graph = solver_diamond();
  const GraphPlanner planner(graph, GraphPlanConfig::optimistic(graph));
  auto solved = planner.solve(20.0, 380.0);  // zero slack
  ASSERT_TRUE(solved.ok()) << solved.error().message;
  const auto& minimal = planner.minimal_intervals();
  for (NodeIndex u = 0; u < graph.size(); ++u) {
    EXPECT_NEAR(solved.value().firing_intervals[u], minimal[u],
                1e-6 * minimal[u] + 1e-6)
        << u;
  }
}

TEST(DagSolve, SolutionIsFeasibleForTheExposedProblem) {
  const GraphSpec graph = solver_diamond();
  const GraphPlanner planner(graph, GraphPlanConfig::optimistic(graph));
  for (double tau0 : {10.0, 25.0, 60.0}) {
    for (double deadline : {450.0, 800.0, 2000.0}) {
      auto solved = planner.solve(tau0, deadline);
      ASSERT_EQ(solved.ok(), planner.is_feasible(tau0, deadline))
          << tau0 << " " << deadline;
      if (!solved.ok()) continue;
      auto problem = planner.build_problem(tau0, deadline);
      ASSERT_TRUE(problem.ok()) << problem.error().message;
      const linalg::Vector x(solved.value().firing_intervals.begin(),
                             solved.value().firing_intervals.end());
      EXPECT_TRUE(problem.value().is_feasible(x, 1e-6))
          << tau0 << " " << deadline;
      EXPECT_LE(solved.value().predicted_active_fraction, 1.0 + 1e-9);
      EXPECT_GT(solved.value().predicted_active_fraction, 0.0);
    }
  }
}

/// FNV-1a over every solve on a grid hugging the feasibility frontier: per
/// cell the outcome, then either the failure code or every GraphSchedule
/// field (waits, intervals, active fraction, budget used, the KKT report
/// and the delegation flag). tau0 runs from just below the rate frontier
/// upward; D from just below the deadline frontier at that tau0 upward.
std::uint64_t frontier_plan_digest(const GraphSpec& graph,
                                   const GraphPlanConfig& config) {
  std::uint64_t hash = 1469598103934665603ULL;
  auto mix_bytes = [&hash](const void* data, std::size_t len) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ULL;
    }
  };
  auto mix = [&mix_bytes](const auto& value) {
    mix_bytes(&value, sizeof(value));
  };
  auto mix_text = [&](const std::string& text) {
    mix(text.size());
    mix_bytes(text.data(), text.size());
  };

  const GraphPlanner planner(graph, config);
  const Cycles tau_floor = planner.min_feasible_tau0(1e12);
  for (double tau_scale : {0.99, 1.0, 1.01, 1.25, 2.0, 4.0, 16.0}) {
    const Cycles tau0 = tau_floor * tau_scale;
    const Cycles deadline_floor = planner.min_feasible_deadline(
        std::max(tau0, tau_floor));
    for (double deadline_scale : {0.999, 1.0, 1.001, 1.05, 1.5, 3.0, 10.0}) {
      auto solved = planner.solve(tau0, deadline_floor * deadline_scale);
      mix(solved.ok());
      if (!solved.ok()) {
        mix_text(solved.error().code);
        continue;
      }
      const GraphSchedule& s = solved.value();
      mix(s.waits.size());
      for (Cycles w : s.waits) mix(w);
      for (Cycles x : s.firing_intervals) mix(x);
      mix(s.predicted_active_fraction);
      mix(s.deadline_budget_used);
      mix(s.kkt.primal_infeasibility);
      mix(s.kkt.stationarity_residual);
      mix(s.kkt.min_multiplier);
      mix(s.kkt.active_labels.size());
      for (const std::string& label : s.kkt.active_labels) mix_text(label);
      mix(s.lowered_linear);
    }
  }
  return hash;
}

TEST(DagSolve, GoldenDigestOnScenarioFrontiers) {
  // Pins every bit of both scenario DAGs' plans (2 and 9 source-to-sink
  // paths) at the optimistic b and at b = 2 on every node.
  const GraphSpec blast = branching_blast_scenario().graph;
  const GraphSpec fanin = telemetry_fanin_scenario().graph;
  EXPECT_EQ(frontier_plan_digest(blast, GraphPlanConfig::optimistic(blast)),
            0x6ea02286dbd5a1e2ULL);
  EXPECT_EQ(frontier_plan_digest(
                blast, GraphPlanConfig{std::vector<double>(blast.size(), 2.0)}),
            0xd732e3e92276d904ULL);
  EXPECT_EQ(frontier_plan_digest(fanin, GraphPlanConfig::optimistic(fanin)),
            0x572b9f904f26b7c6ULL);
  EXPECT_EQ(frontier_plan_digest(
                fanin, GraphPlanConfig{std::vector<double>(fanin.size(), 2.0)}),
            0x60c340b4056da18cULL);
}

}  // namespace
}  // namespace ripple::graph
