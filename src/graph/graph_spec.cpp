#include "graph/graph_spec.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <set>

#include "util/assert.hpp"
#include "util/string_utils.hpp"

namespace ripple::graph {

namespace {

std::string edge_label(const GraphSpec& graph, const GraphEdgeSpec& edge) {
  return "edge " + graph.node(edge.from).name + "->" + graph.node(edge.to).name;
}

sim::NodeRole role_of(NodeKind kind) {
  switch (kind) {
    case NodeKind::kSiso:
      return sim::NodeRole::kStage;
    case NodeKind::kSimoTee:
      return sim::NodeRole::kTee;
    case NodeKind::kMisoElementwise:
      return sim::NodeRole::kMerge;
    case NodeKind::kMimoSynchronizer:
      return sim::NodeRole::kSync;
  }
  return sim::NodeRole::kStage;
}

/// Kind-specific span names — string literals, as obs/trace.hpp requires.
const char* fire_span_name(NodeKind kind) {
  switch (kind) {
    case NodeKind::kSiso:
      return "graph.fire";
    case NodeKind::kSimoTee:
      return "graph.tee";
    case NodeKind::kMisoElementwise:
      return "graph.merge";
    case NodeKind::kMimoSynchronizer:
      return "graph.sync";
  }
  return "graph.fire";
}

}  // namespace

const char* node_kind_name(NodeKind kind) noexcept {
  switch (kind) {
    case NodeKind::kSiso:
      return "siso";
    case NodeKind::kSimoTee:
      return "tee";
    case NodeKind::kMisoElementwise:
      return "merge";
    case NodeKind::kMimoSynchronizer:
      return "synchronizer";
  }
  return "?";
}

const GraphNodeSpec& GraphSpec::node(NodeIndex i) const {
  RIPPLE_REQUIRE(i < nodes_.size(), "graph node index out of range");
  return nodes_[i];
}

Cycles GraphSpec::service_time(NodeIndex i) const {
  return node(i).service_time;
}

const GraphEdgeSpec& GraphSpec::edge(EdgeIndex e) const {
  RIPPLE_REQUIRE(e < edges_.size(), "graph edge index out of range");
  return edges_[e];
}

const std::vector<EdgeIndex>& GraphSpec::out_edges(NodeIndex i) const {
  RIPPLE_REQUIRE(i < out_edges_.size(), "graph node index out of range");
  return out_edges_[i];
}

const std::vector<EdgeIndex>& GraphSpec::in_edges(NodeIndex i) const {
  RIPPLE_REQUIRE(i < in_edges_.size(), "graph node index out of range");
  return in_edges_[i];
}

bool GraphSpec::is_linear() const noexcept {
  for (NodeIndex i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind != NodeKind::kSiso) return false;
    if (out_edges_[i].size() > 1 || in_edges_[i].size() > 1) return false;
  }
  return true;
}

util::Result<sdf::PipelineSpec> GraphSpec::lower_to_pipeline() const {
  using R = util::Result<sdf::PipelineSpec>;
  if (!is_linear()) {
    return R::failure("not_linear",
                      "graph '" + name_ + "' has non-SISO structure");
  }
  sdf::PipelineBuilder builder(name_);
  builder.simd_width(simd_width_);
  // Walk the unique chain from the source; node i's pipeline gain is its
  // single out-edge's gain, the sink gets the Deterministic(1) convention.
  NodeIndex current = source_;
  for (std::size_t step = 0; step < nodes_.size(); ++step) {
    const GraphNodeSpec& node = nodes_[current];
    if (out_edges_[current].empty()) {
      builder.add_node(node.name, node.service_time,
                       std::make_shared<dist::DeterministicGain>(1));
      break;
    }
    const GraphEdgeSpec& out = edges_[out_edges_[current][0]];
    builder.add_node(node.name, node.service_time, out.gain);
    current = out.to;
  }
  return builder.build();
}

sim::Topology graph_topology(const GraphSpec& graph) {
  const std::size_t n = graph.size();
  sim::Topology topology;
  topology.reader.resize(graph.edge_count() + 1);
  topology.gain.resize(graph.edge_count() + 1);
  topology.arrival_queue = graph.edge_count();
  topology.simd_width = graph.simd_width();
  topology.start_order = graph.topo_order();
  topology.nodes.resize(n);
  for (NodeIndex u = 0; u < n; ++u) {
    sim::TopologyNode& node = topology.nodes[u];
    node.name = graph.node(u).name;
    node.role = role_of(graph.node(u).kind);
    node.service_time = graph.service_time(u);
    node.span = fire_span_name(graph.node(u).kind);
    node.depth_counter = "graph.queue_depth";
    if (u == graph.source()) {
      node.in_queues = {topology.arrival_queue};
      node.depth_tracks = {static_cast<std::uint32_t>(u)};
      topology.reader[topology.arrival_queue] = u;
    }
    for (const EdgeIndex e : graph.in_edges(u)) {
      node.in_queues.push_back(e);
      node.depth_tracks.push_back(static_cast<std::uint32_t>(n + e));
      topology.reader[e] = u;
    }
    node.out_queues = graph.out_edges(u);
  }
  for (EdgeIndex e = 0; e < graph.edge_count(); ++e) {
    topology.gain[e] = graph.edge(e).gain;
    topology.extra_tracks.emplace_back(static_cast<std::uint32_t>(n + e),
                                       edge_label(graph, graph.edge(e)));
  }
  return topology;
}

double GraphSpec::node_flow(NodeIndex i) const {
  RIPPLE_REQUIRE(i < node_flows_.size(), "graph node index out of range");
  return node_flows_[i];
}

double GraphSpec::edge_flow(EdgeIndex e) const {
  const GraphEdgeSpec& spec = edge(e);
  return node_flows_[spec.from] * spec.mean_gain();
}

std::vector<Cycles> GraphSpec::minimal_firing_intervals() const {
  std::vector<Cycles> minimal(nodes_.size(), 0.0);
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    const NodeIndex u = *it;
    Cycles interval = nodes_[u].service_time;
    for (EdgeIndex e : out_edges_[u]) {
      interval = std::max(interval, edges_[e].mean_gain() * minimal[edges_[e].to]);
    }
    minimal[u] = interval;
  }
  return minimal;
}

Cycles GraphSpec::max_path_budget(const std::vector<double>& b,
                                  const std::vector<Cycles>& x) const {
  RIPPLE_REQUIRE(b.size() == nodes_.size(), "budget coefficient count mismatch");
  RIPPLE_REQUIRE(x.size() == nodes_.size(), "interval count mismatch");
  // best[u] = max over u->sink suffix paths of sum b_i x_i, reverse topo DP.
  std::vector<Cycles> best(nodes_.size(), 0.0);
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    const NodeIndex u = *it;
    Cycles suffix = 0.0;
    for (EdgeIndex e : out_edges_[u]) {
      suffix = std::max(suffix, best[edges_[e].to]);
    }
    best[u] = b[u] * x[u] + suffix;
  }
  return best[source_];
}

util::Result<std::vector<GraphPath>> GraphSpec::enumerate_paths(
    std::size_t max_paths) const {
  using R = util::Result<std::vector<GraphPath>>;
  std::vector<GraphPath> paths;
  // Iterative DFS in out-edge insertion order keeps enumeration deterministic.
  GraphPath current;
  current.nodes.push_back(source_);
  std::vector<std::size_t> next_edge{0};
  while (!current.nodes.empty()) {
    const NodeIndex u = current.nodes.back();
    if (out_edges_[u].empty()) {
      if (paths.size() >= max_paths) {
        return R::failure("too_many_paths",
                          "graph '" + name_ + "' has more than " +
                              std::to_string(max_paths) +
                              " source->sink paths");
      }
      paths.push_back(current);
    }
    if (next_edge.back() < out_edges_[u].size()) {
      const EdgeIndex e = out_edges_[u][next_edge.back()];
      ++next_edge.back();
      current.edges.push_back(e);
      current.total_gain *= edges_[e].mean_gain();
      current.nodes.push_back(edges_[e].to);
      next_edge.push_back(0);
    } else {
      current.nodes.pop_back();
      next_edge.pop_back();
      if (!current.edges.empty()) {
        const double gain = edges_[current.edges.back()].mean_gain();
        current.total_gain = gain > 0.0 ? current.total_gain / gain : 1.0;
        current.edges.pop_back();
      }
    }
  }
  // Division-based gain unwinding accumulates rounding; recompute each path's
  // product exactly so callers can rely on bit-stable totals.
  for (GraphPath& path : paths) {
    path.total_gain = 1.0;
    for (EdgeIndex e : path.edges) path.total_gain *= edges_[e].mean_gain();
  }
  return paths;
}

GraphBuilder::GraphBuilder(std::string name) {
  spec_.name_ = std::move(name);
  spec_.simd_width_ = 128;  // the paper's default v
}

GraphBuilder& GraphBuilder::simd_width(std::uint32_t v) {
  spec_.simd_width_ = v;
  return *this;
}

GraphBuilder& GraphBuilder::add_node(std::string name, NodeKind kind,
                                     Cycles service_time) {
  GraphNodeSpec node;
  node.name = std::move(name);
  node.kind = kind;
  node.service_time = service_time;
  spec_.nodes_.push_back(std::move(node));
  return *this;
}

GraphBuilder& GraphBuilder::add_edge(NodeIndex from, NodeIndex to,
                                     dist::GainPtr gain) {
  GraphEdgeSpec edge;
  edge.from = from;
  edge.to = to;
  edge.gain = std::move(gain);
  spec_.edges_.push_back(std::move(edge));
  return *this;
}

util::Result<GraphSpec> GraphBuilder::build() const {
  using R = util::Result<GraphSpec>;
  GraphSpec spec = spec_;
  const std::size_t n = spec.nodes_.size();
  if (n == 0) return R::failure("empty", "graph has no nodes");
  if (spec.simd_width_ == 0) {
    return R::failure("bad_width", "SIMD width must be positive");
  }
  for (NodeIndex i = 0; i < n; ++i) {
    if (!(spec.nodes_[i].service_time > 0.0)) {
      return R::failure("bad_service", "node " + spec.nodes_[i].name +
                                           ": service time must be positive");
    }
  }

  // Edge sanity + adjacency.
  spec.out_edges_.assign(n, {});
  spec.in_edges_.assign(n, {});
  std::set<std::pair<NodeIndex, NodeIndex>> seen;
  for (EdgeIndex e = 0; e < spec.edges_.size(); ++e) {
    const GraphEdgeSpec& edge = spec.edges_[e];
    if (edge.from >= n || edge.to >= n) {
      return R::failure("bad_edge", "edge " + std::to_string(e) +
                                        ": endpoint out of range");
    }
    if (edge.from == edge.to) {
      return R::failure("bad_edge", "edge " + std::to_string(e) +
                                        ": self-loop on node " +
                                        spec.nodes_[edge.from].name);
    }
    if (!seen.insert({edge.from, edge.to}).second) {
      return R::failure("bad_edge",
                        "duplicate " + edge_label(spec, edge));
    }
    if (!edge.gain) {
      return R::failure("missing_gain",
                        edge_label(spec, edge) + ": no gain model");
    }
    spec.out_edges_[edge.from].push_back(e);
    spec.in_edges_[edge.to].push_back(e);
  }

  // Kahn topological order, smallest-ready-index first (deterministic).
  std::vector<std::size_t> remaining(n);
  for (NodeIndex i = 0; i < n; ++i) remaining[i] = spec.in_edges_[i].size();
  std::priority_queue<NodeIndex, std::vector<NodeIndex>,
                      std::greater<NodeIndex>>
      ready;
  for (NodeIndex i = 0; i < n; ++i) {
    if (remaining[i] == 0) ready.push(i);
  }
  spec.topo_.clear();
  while (!ready.empty()) {
    const NodeIndex u = ready.top();
    ready.pop();
    spec.topo_.push_back(u);
    for (EdgeIndex e : spec.out_edges_[u]) {
      if (--remaining[spec.edges_[e].to] == 0) ready.push(spec.edges_[e].to);
    }
  }
  if (spec.topo_.size() != n) {
    return R::failure("cycle", "graph '" + spec.name_ + "' contains a cycle");
  }

  // Exactly one source and one sink.
  std::vector<NodeIndex> sources;
  std::vector<NodeIndex> sinks;
  for (NodeIndex i = 0; i < n; ++i) {
    if (spec.in_edges_[i].empty()) sources.push_back(i);
    if (spec.out_edges_[i].empty()) sinks.push_back(i);
  }
  if (sources.empty()) return R::failure("no_source", "graph has no source");
  if (sources.size() > 1) {
    return R::failure("multi_source",
                      "nodes " + spec.nodes_[sources[0]].name + " and " +
                          spec.nodes_[sources[1]].name +
                          " both have zero in-edges");
  }
  if (sinks.empty()) return R::failure("no_sink", "graph has no sink");
  if (sinks.size() > 1) {
    return R::failure("multi_sink",
                      "nodes " + spec.nodes_[sinks[0]].name + " and " +
                          spec.nodes_[sinks[1]].name +
                          " both have zero out-edges");
  }
  spec.source_ = sources[0];
  spec.sink_ = sinks[0];

  // With a single source and sink in an acyclic graph, topo order implies
  // every node is forward-reachable from the source (in-degree > 0 chains
  // back) — but check both directions explicitly for clear errors.
  {
    std::vector<char> from_source(n, 0);
    from_source[spec.source_] = 1;
    for (NodeIndex u : spec.topo_) {
      if (!from_source[u]) continue;
      for (EdgeIndex e : spec.out_edges_[u]) from_source[spec.edges_[e].to] = 1;
    }
    std::vector<char> to_sink(n, 0);
    to_sink[spec.sink_] = 1;
    for (auto it = spec.topo_.rbegin(); it != spec.topo_.rend(); ++it) {
      if (!to_sink[*it]) continue;
      for (EdgeIndex e : spec.in_edges_[*it]) to_sink[spec.edges_[e].from] = 1;
    }
    for (NodeIndex i = 0; i < n; ++i) {
      if (!from_source[i] || !to_sink[i]) {
        return R::failure("unreachable",
                          "node " + spec.nodes_[i].name +
                              " is not on any source->sink path");
      }
    }
  }

  // Per-kind degree rules.
  for (NodeIndex i = 0; i < n; ++i) {
    const GraphNodeSpec& node = spec.nodes_[i];
    const std::size_t in = spec.in_edges_[i].size();
    const std::size_t out = spec.out_edges_[i].size();
    bool ok = false;
    switch (node.kind) {
      case NodeKind::kSiso:
        ok = in <= 1 && out <= 1;
        break;
      case NodeKind::kSimoTee:
        ok = in == 1 && out >= 2;
        break;
      case NodeKind::kMisoElementwise:
        ok = in >= 2 && out == 1;
        break;
      case NodeKind::kMimoSynchronizer:
        ok = in >= 2 && in == out;
        break;
    }
    if (!ok) {
      return R::failure(
          "bad_degree",
          "node " + node.name + " (" + node_kind_name(node.kind) + ") has " +
              std::to_string(in) + " in-edge(s) and " + std::to_string(out) +
              " out-edge(s)");
    }
  }

  // Expected per-input flows (topo order), then merge/synchronizer
  // rate-match validation: elementwise consumption requires every in-edge to
  // carry the same mean flow.
  spec.node_flows_.assign(n, 0.0);
  spec.node_flows_[spec.source_] = 1.0;
  for (NodeIndex u : spec.topo_) {
    if (!spec.in_edges_[u].empty()) {
      // Merge/synchronizer in-edges are rate-matched (validated below), so
      // the node's flow is the matched per-edge flow, not the sum.
      double flow = 0.0;
      for (EdgeIndex e : spec.in_edges_[u]) {
        const GraphEdgeSpec& edge = spec.edges_[e];
        flow = std::max(flow,
                        spec.node_flows_[edge.from] * edge.mean_gain());
      }
      spec.node_flows_[u] = flow;
    }
  }
  for (NodeIndex i = 0; i < n; ++i) {
    const GraphNodeSpec& node = spec.nodes_[i];
    if (node.kind != NodeKind::kMisoElementwise &&
        node.kind != NodeKind::kMimoSynchronizer) {
      continue;
    }
    const std::vector<EdgeIndex>& in = spec.in_edges_[i];
    const GraphEdgeSpec& first = spec.edges_[in[0]];
    const double reference = spec.node_flows_[first.from] * first.mean_gain();
    for (std::size_t j = 1; j < in.size(); ++j) {
      const GraphEdgeSpec& edge = spec.edges_[in[j]];
      const double flow = spec.node_flows_[edge.from] * edge.mean_gain();
      if (std::abs(flow - reference) > 1e-9 * (1.0 + std::abs(reference))) {
        return R::failure(
            "rate_mismatch",
            "node " + node.name + ": in-" + edge_label(spec, edge) +
                " carries mean flow " + util::format_double(flow, 6) +
                " but in-" + edge_label(spec, first) + " carries " +
                util::format_double(reference, 6));
      }
    }
  }

  return spec;
}

}  // namespace ripple::graph
