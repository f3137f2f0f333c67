// The one pipeline shape every engine runs over: nodes, the queues they read
// and write, and the gain model of every queue's writer.
//
// The paper's rule is the same for every pipeline shape: node u fires every
// x_u cycles and takes up to v lanes from its input queue(s). A Topology
// describes the shape once, and each engine is written against it:
//
//   sim::simulate_enforced_waits_into — the enforced-waits discrete-event
//                                       simulator (sim/enforced_sim.hpp);
//   sim::simulate_greedy_throughput   — the greedy throughput baseline
//                                       (sim/greedy_sim.hpp);
//   runtime::detail::run_vector_loop /
//   runtime::detail::run_item_oracle  — the executors, which run real stage
//                                       code (runtime/executor_internal.hpp).
//
// A chain is the topology in which node i reads queue i and writes queue
// i + 1 (chain_topology); graph::graph_topology builds a DAG's. Trace names
// are data on the nodes, so one loop emits a chain's "fire"/"queue_depth"
// timeline and a DAG's "graph.*" timeline alike.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dist/gain.hpp"
#include "sdf/pipeline.hpp"
#include "util/types.hpp"

namespace ripple::sim {

/// How a node turns the lanes it consumes into outputs.
enum class NodeRole : std::uint8_t {
  kStage,  ///< one in-queue; outputs go to its out-queue (none at the sink)
  kTee,    ///< one in-queue; outputs are replicated to every out-queue
  kMerge,  ///< one matched lane per in-queue, combined into one output lane
  kSync,   ///< no stage: in-queue j's lanes move to out-queue j
};

struct TopologyNode {
  std::string name;
  NodeRole role = NodeRole::kStage;
  Cycles service_time = 0.0;
  /// Queue ids read, in stage-input order (merge tuples, sync streams).
  std::vector<std::size_t> in_queues;
  /// Queue ids written, in replication / stream order; empty at the sink.
  std::vector<std::size_t> out_queues;
  /// Trace names (string literals): the span around each consuming firing
  /// and the depth counter sampled per in-queue on `depth_tracks[j]`. The
  /// node's own track id is its index.
  const char* span = "fire";
  const char* depth_counter = "queue_depth";
  std::vector<std::uint32_t> depth_tracks;
};

struct Topology {
  std::vector<TopologyNode> nodes;
  /// The node reading each queue (every queue has exactly one reader).
  std::vector<NodeIndex> reader;
  /// Gain model of the items written into each queue: one input consumed by
  /// the writer yields gain-many items here. Null for the arrival queue.
  /// Only the simulators sample it; the executors run real stage code.
  std::vector<dist::GainPtr> gain;
  /// The queue arrivals land in (read by the source).
  std::size_t arrival_queue = 0;
  std::uint32_t simd_width = 0;
  /// A topological order of the nodes; initial FireStarts are pushed in it.
  /// Same-time FireStarts pop in this order, which decides the tail of a
  /// run: a FireStart that finds arrivals done and no live item does not
  /// reschedule its node.
  std::vector<NodeIndex> start_order;
  /// Named trace tracks beyond the per-node ones (per-edge depth tracks).
  std::vector<std::pair<std::uint32_t, std::string>> extra_tracks;
};

/// Node i reads queue i and writes queue i + 1; arrivals land in queue 0.
/// `span` names each consuming firing's trace span ("fire" in the
/// simulators, "service" in the executors); depth counters are
/// "queue_depth" on the node's own track.
Topology chain_topology(const sdf::PipelineSpec& pipeline, const char* span);

/// Pipeline-aligned offsets: each node first fires just after its latest
/// predecessor's first firing ends, i.e. at the maximum over in-queues of
/// (writer's offset + (writer's service time + epsilon)), so deliveries
/// strictly precede the consuming firing. On a chain node i starts at
/// sum_{j<i} (t_j + epsilon).
std::vector<Cycles> aligned_phase_offsets(const Topology& topology);

}  // namespace ripple::sim
