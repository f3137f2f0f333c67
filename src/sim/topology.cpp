#include "sim/topology.hpp"

#include <algorithm>

namespace ripple::sim {

Topology chain_topology(const sdf::PipelineSpec& pipeline, const char* span) {
  const std::size_t n = pipeline.size();
  Topology topology;
  topology.arrival_queue = 0;
  topology.simd_width = pipeline.simd_width();
  topology.nodes.resize(n);
  topology.gain.resize(n);
  for (NodeIndex i = 0; i < n; ++i) {
    TopologyNode& node = topology.nodes[i];
    node.name = pipeline.node(i).name;
    node.service_time = pipeline.service_time(i);
    node.in_queues = {i};
    if (i + 1 < n) {
      node.out_queues = {i + 1};
      topology.gain[i + 1] = pipeline.node(i).gain;
    }
    node.span = span;
    node.depth_tracks = {static_cast<std::uint32_t>(i)};
    topology.reader.push_back(i);
    topology.start_order.push_back(i);
  }
  return topology;
}

std::vector<Cycles> aligned_phase_offsets(const Topology& topology) {
  std::vector<NodeIndex> writer(topology.reader.size());
  for (NodeIndex u = 0; u < topology.nodes.size(); ++u) {
    for (const std::size_t q : topology.nodes[u].out_queues) writer[q] = u;
  }
  std::vector<Cycles> offsets(topology.nodes.size(), 0.0);
  for (const NodeIndex u : topology.start_order) {
    for (const std::size_t q : topology.nodes[u].in_queues) {
      if (q == topology.arrival_queue) continue;
      const NodeIndex from = writer[q];
      // +epsilon so the consuming firing strictly follows the delivery even
      // under floating-point ties.
      offsets[u] = std::max(
          offsets[u], offsets[from] + (topology.nodes[from].service_time + 1e-6));
    }
  }
  return offsets;
}

}  // namespace ripple::sim
