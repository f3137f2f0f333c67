// GraphSpec: a DAG generalization of the linear PipelineSpec — SISO chains
// plus tee (SIMO), elementwise merge (MISO), and batch-aligning synchronizer
// (MIMO) nodes, with per-edge gain models.
//
// The paper's chain constraint g_{i-1} x_i <= x_{i-1} becomes a per-edge
// constraint g_e x_v <= x_u for every edge e = (u, v); the linear pipeline is
// the single-path special case, and a linear GraphSpec lowers losslessly to a
// PipelineSpec (lower_to_pipeline), which keeps the planner bit-identical to
// the chain solver on chains. The simulators and executors need no lowering:
// they run every graph over graph_topology(), the same sim::Topology a chain
// is run over.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dist/gain.hpp"
#include "sdf/pipeline.hpp"
#include "sim/topology.hpp"
#include "util/result.hpp"
#include "util/types.hpp"

namespace ripple::graph {

using EdgeIndex = std::size_t;

/// Node taxonomy (bpipe's filter vocabulary):
///   kSiso             — one in-edge, one out-edge (classic pipeline stage;
///                       the graph source has zero in-edges and the sink zero
///                       out-edges).
///   kSimoTee          — one in-edge, >= 2 out-edges: each consumed item's
///                       outputs are replicated onto every out-edge.
///   kMisoElementwise  — >= 2 in-edges, one out-edge: consumes one item from
///                       each in-edge per lane (rate-matched upstreams) and
///                       emits a combined item.
///   kMimoSynchronizer — K in-edges, K out-edges: realigns batch boundaries
///                       so downstream consumers see lockstep batches;
///                       in-edge j forwards to out-edge j.
enum class NodeKind : std::uint8_t {
  kSiso,
  kSimoTee,
  kMisoElementwise,
  kMimoSynchronizer,
};

/// Human-readable kind name ("siso", "tee", "merge", "synchronizer").
const char* node_kind_name(NodeKind kind) noexcept;

struct GraphNodeSpec {
  std::string name;
  NodeKind kind = NodeKind::kSiso;
  Cycles service_time = 0.0;
};

/// Directed edge u -> v with the gain model applied to items traversing it:
/// one input consumed at `from` yields gain-many items delivered to `to`.
struct GraphEdgeSpec {
  NodeIndex from = 0;
  NodeIndex to = 0;
  dist::GainPtr gain;

  double mean_gain() const { return gain ? gain->mean() : 0.0; }
};

/// One source -> sink path: node indices plus the edges walked, with the
/// path's total gain product (expected sink outputs per source input along
/// this path) and deadline-budget coefficients.
struct GraphPath {
  std::vector<NodeIndex> nodes;
  std::vector<EdgeIndex> edges;
  double total_gain = 1.0;
};

/// Immutable-after-build DAG description. Use GraphBuilder to construct;
/// building validates acyclicity, single source/sink, reachability, per-kind
/// degree rules, and merge/synchronizer rate matching, and precomputes the
/// topological order and adjacency used by the planner, sims, and executor.
class GraphSpec {
 public:
  const std::string& name() const noexcept { return name_; }
  std::size_t size() const noexcept { return nodes_.size(); }
  std::uint32_t simd_width() const noexcept { return simd_width_; }

  const GraphNodeSpec& node(NodeIndex i) const;
  const std::vector<GraphNodeSpec>& nodes() const noexcept { return nodes_; }
  Cycles service_time(NodeIndex i) const;

  const GraphEdgeSpec& edge(EdgeIndex e) const;
  const std::vector<GraphEdgeSpec>& edges() const noexcept { return edges_; }
  std::size_t edge_count() const noexcept { return edges_.size(); }

  /// Out-/in-edge indices of node i, in edge-insertion order. The order is
  /// load-bearing: tee replication, merge tuple layout, and synchronizer
  /// stream pairing (in-edge j -> out-edge j) all follow it.
  const std::vector<EdgeIndex>& out_edges(NodeIndex i) const;
  const std::vector<EdgeIndex>& in_edges(NodeIndex i) const;

  /// Topological order over nodes (deterministic: Kahn's algorithm with the
  /// smallest-index node first among ready nodes).
  const std::vector<NodeIndex>& topo_order() const noexcept { return topo_; }

  NodeIndex source() const noexcept { return source_; }
  NodeIndex sink() const noexcept { return sink_; }

  /// True when every node is kSiso with <= 1 in- and out-edge — i.e. the
  /// graph is exactly the paper's linear chain.
  bool is_linear() const noexcept;

  /// Lowers a linear graph to the equivalent PipelineSpec: node i's pipeline
  /// gain is its single out-edge's gain (sink: Deterministic(1)). Fails with
  /// code "not_linear" on branching graphs.
  util::Result<sdf::PipelineSpec> lower_to_pipeline() const;

  /// Expected items arriving at node i per source input (the DAG analogue of
  /// PipelineSpec::total_gain_into). For merge/synchronizer nodes all
  /// in-edges are rate-matched, so this is the matched per-edge flow.
  double node_flow(NodeIndex i) const;

  /// Expected items traversing edge e per source input.
  double edge_flow(EdgeIndex e) const;

  /// DAG-minimal firing intervals L_u = max(t_u, max over out-edges e=(u,v)
  /// of g_e * L_v) — the generalization of the chain's backward recursion.
  std::vector<Cycles> minimal_firing_intervals() const;

  /// Max over source->sink paths of sum_{i in path} b_i * x_i, computed by a
  /// topological DP (no path enumeration). With x = minimal intervals this
  /// is the graph's minimal deadline budget.
  Cycles max_path_budget(const std::vector<double>& b,
                         const std::vector<Cycles>& x) const;

  /// Every source->sink path in deterministic (out-edge insertion) order.
  /// Fails with code "too_many_paths" beyond `max_paths` (the planner's
  /// per-path constraint set must stay enumerable).
  util::Result<std::vector<GraphPath>> enumerate_paths(
      std::size_t max_paths = 64) const;

 private:
  friend class GraphBuilder;
  GraphSpec() = default;

  std::string name_;
  std::uint32_t simd_width_ = 0;
  std::vector<GraphNodeSpec> nodes_;
  std::vector<GraphEdgeSpec> edges_;
  std::vector<std::vector<EdgeIndex>> out_edges_;
  std::vector<std::vector<EdgeIndex>> in_edges_;
  std::vector<NodeIndex> topo_;
  NodeIndex source_ = 0;
  NodeIndex sink_ = 0;
  std::vector<double> node_flows_;  // precomputed expected per-input flow
};

/// The graph as the engines' topology (sim/topology.hpp): queue e is edge e
/// and carries the edge's gain, and the source reads one extra arrival queue
/// (queue edge_count()). Nodes keep their graph indices and start in
/// topo_order(). Trace names are the graph.* family: a kind-specific span
/// ("graph.fire" / "graph.tee" / "graph.merge" / "graph.sync") on the node's
/// track, and "graph.queue_depth" per in-queue on the edge's own track (node
/// count + edge index; the arrival queue reports on the source's track).
sim::Topology graph_topology(const GraphSpec& graph);

/// Fluent builder with validation at build().
class GraphBuilder {
 public:
  explicit GraphBuilder(std::string name);

  GraphBuilder& simd_width(std::uint32_t v);
  GraphBuilder& add_node(std::string name, NodeKind kind, Cycles service_time);

  /// Adds edge from -> to (by node insertion index) carrying `gain`.
  GraphBuilder& add_edge(NodeIndex from, NodeIndex to, dist::GainPtr gain);

  /// Validates and produces the spec. Failure codes (messages name the
  /// offending node or edge):
  ///   "empty"         — no nodes
  ///   "bad_width"     — simd width not positive
  ///   "bad_service"   — non-positive service time
  ///   "bad_edge"      — endpoint out of range, self-loop, or duplicate edge
  ///   "missing_gain"  — an edge lacks a gain model
  ///   "cycle"         — the edge set is not acyclic
  ///   "no_source" / "multi_source" — not exactly one zero-in-degree node
  ///   "no_sink" / "multi_sink"     — not exactly one zero-out-degree node
  ///   "unreachable"   — a node off every source->sink path
  ///   "bad_degree"    — node kind vs in/out arity mismatch
  ///   "rate_mismatch" — merge/synchronizer in-edge mean flows differ
  util::Result<GraphSpec> build() const;

 private:
  GraphSpec spec_;
};

}  // namespace ripple::graph
