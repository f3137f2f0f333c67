// The executor's one internal model: a topology of nodes and queues, the
// event vocabulary, and the two engines that run over them.
//
// The paper's executor rule is the same for every pipeline shape: node u
// fires every x_u cycles and takes up to v lanes from its input queue(s).
// A Topology describes the shape once — which queues each node reads and
// writes, how it turns lanes into outputs, its service time and its trace
// names — and both engines are written against it:
//
//   run_vector_loop  — the vector-wide engine (pipeline_executor.cpp): SoA
//                      ring queues, one BatchStage call per firing. It
//                      serves PipelineExecutor::run/run_batch and
//                      GraphExecutor::run.
//   run_item_oracle  — the per-item oracle (reference_executor.cpp): one
//                      std::deque of (item, root) per queue, one scalar
//                      stage call per lane. It serves ReferenceExecutor and
//                      GraphExecutor::run_reference.
//
// The two share only the topology and validate_run_config; each owns its
// queues and firing code, so agreement between them is an independent
// check. A chain is the topology in which node i reads queue i and writes
// queue i + 1 (chain_topology); GraphExecutor builds a DAG's topology from
// its GraphSpec.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "runtime/pipeline_executor.hpp"
#include "sdf/pipeline.hpp"
#include "util/result.hpp"
#include "util/types.hpp"

namespace ripple::runtime::detail {

enum EventPriority : int {
  kPriorityFireEnd = 0,
  // Priority 1 was the seed engine's arrival events; both engines
  // materialize arrivals lazily (they commute with fire-ends, which never
  // touch the arrival queue) so only fire events remain.
  kPriorityFireStart = 2,
};

struct EventPayload {
  enum class Kind : std::uint8_t { kFireEnd, kFireStart };
  Kind kind;
  NodeIndex node = 0;
};

/// How a node turns the lanes it consumes into outputs.
enum class NodeRole : std::uint8_t {
  kStage,  ///< one in-queue; outputs go to its out-queue (none at the sink)
  kTee,    ///< one in-queue; outputs are replicated to every out-queue
  kMerge,  ///< one matched lane per in-queue, handed to the stage together
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
  const char* span = "service";
  const char* depth_counter = "queue_depth";
  std::vector<std::uint32_t> depth_tracks;
};

struct Topology {
  std::vector<TopologyNode> nodes;
  /// The node reading each queue (every queue has exactly one reader).
  std::vector<NodeIndex> reader;
  /// The queue arrivals land in (read by the source).
  std::size_t arrival_queue = 0;
  std::uint32_t simd_width = 0;
  /// Order the initial FireStarts are pushed in. Same-time FireStarts pop
  /// in this order, which decides the tail of a run: a FireStart that finds
  /// arrivals done and no live item does not reschedule its node.
  std::vector<NodeIndex> start_order;
  /// Named trace tracks beyond the per-node ones (per-edge depth tracks).
  std::vector<std::pair<std::uint32_t, std::string>> extra_tracks;
};

/// Node i reads queue i and writes queue i + 1; arrivals land in queue 0.
Topology chain_topology(const sdf::PipelineSpec& pipeline);

/// Run-config validation shared by both engines. Returns the failure to
/// propagate, or nullopt when the configuration is runnable.
std::optional<util::Result<ExecutionMetrics>> validate_run_config(
    const Topology& topology, std::size_t input_count,
    const ExecutorConfig& config);

/// Construction-time checks of one BatchStage per node against the
/// topology: stages callable (synchronizers excepted), arities within the
/// register file, typed stages single-input, and every queue's writer and
/// reader agreeing on the lane representation. Throws std::logic_error.
void validate_stages(const Topology& topology,
                     const std::vector<BatchStage>& stages);

/// The vector-wide engine. `stages[u]` is ignored for synchronizers.
/// Exactly one of `typed_inputs` / `item_inputs` is non-null, matching the
/// source stage's representation; item inputs are moved from.
util::Result<ExecutionMetrics> run_vector_loop(
    const Topology& topology, const std::vector<BatchStage>& stages,
    const BatchInputs* typed_inputs, std::vector<Item>* item_inputs,
    const ExecutorConfig& config);

/// One scalar stage call: one input per in-queue (in in-queue order),
/// zero or more outputs appended.
using ItemStageFn =
    std::function<void(std::vector<Item>&& inputs, std::vector<Item>& outputs)>;

/// The per-item oracle. `stages[u]` is ignored for synchronizers.
util::Result<ExecutionMetrics> run_item_oracle(
    const Topology& topology, const std::vector<ItemStageFn>& stages,
    std::vector<Item>& inputs, const ExecutorConfig& config);

}  // namespace ripple::runtime::detail
