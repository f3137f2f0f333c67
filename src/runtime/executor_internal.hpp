// The executor's internals: the event vocabulary and the two engines that
// run real stage code over a sim::Topology (sim/topology.hpp) — the same
// description of nodes, queues, roles, service times and trace names that
// the simulators run over:
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
// check. PipelineExecutor runs sim::chain_topology (with the "service" span
// name); GraphExecutor runs graph::graph_topology. The topology's gain
// models are unused here: gains emerge from the stages.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "runtime/pipeline_executor.hpp"
#include "sim/topology.hpp"
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

using sim::NodeRole;
using sim::Topology;
using sim::TopologyNode;

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
