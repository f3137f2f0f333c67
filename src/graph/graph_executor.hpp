// Vector-wide virtual-time execution of REAL stage computations over
// GraphSpec DAGs — the graph generalization of runtime/pipeline_executor.hpp.
//
// Items flow through per-edge SoA ring queues; each firing of node u hands
// its stage one dense batch of up to v lanes gathered from u's in-edge
// queues. Gains, queue growth, and deadline misses emerge from the stage
// computations themselves rather than from fitted distributions; time stays
// virtual (node u's firings occupy its configured x_u cycles) so runs are
// exactly reproducible and independent of host speed.
//
// Node-kind semantics (matching graph_sim's routing contract):
//   source / SISO  — the stage sees one item per lane and its outputs flow
//                    down the single out-edge (sink outputs are results).
//   tee            — the stage runs once per lane; its outputs are
//                    *replicated* onto every out-edge, in out-edge insertion
//                    order. Item payloads must be copy-constructible.
//   merge          — one matched item per in-edge per lane, handed to the
//                    stage as a tuple in in-edge insertion order; the
//                    combined outputs flow down the single out-edge carrying
//                    the first in-edge's root.
//   synchronizer   — pure forwarding (stage must be null): in-edge j's item
//                    k moves to out-edge j, so every stream advances by the
//                    same matched count and batch boundaries realign.
//
// GraphExecutor is thin glue over the runtime's engines: it describes the
// graph as a topology (one queue per edge plus the source's arrival queue;
// see runtime/executor_internal.hpp), adapts each GraphStageFn to an
// item-carrying BatchStage, and runs the same vector-wide event loop that
// PipelineExecutor runs on chains. A merge node's stage reads one item
// window per in-edge. A linear graph is simply a chain-shaped topology; it
// runs the same loop under its graph node indices, with the graph.* trace
// names. Initial firings are pushed in topo_order(), which keeps same-time
// firings in path order on a chain.
//
// run_reference() is the per-item oracle over the same topology: one
// std::deque of (item, root) per queue, the same event cadence, scalar
// stage calls. It shares no queue or firing code with run(), and the vector
// engine is golden-tested against it (tests/test_graph_executor.cpp).
//
// On RIPPLE_OBS builds each consuming firing emits the kind-specific span
// ("graph.fire" / "graph.tee" / "graph.merge" / "graph.sync") on the node's
// track and "graph.queue_depth" counter samples per in-edge (edge track id =
// node count + edge index), mirroring the stochastic graph simulator.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "graph/graph_spec.hpp"
#include "runtime/pipeline_executor.hpp"
#include "util/result.hpp"
#include "util/types.hpp"

namespace ripple::graph {

using runtime::Item;

/// One graph stage invocation: `inputs` holds one item per in-edge in
/// in-edge insertion order (the source stage receives the arrival item as a
/// single input); append zero or more outputs. Synchronizer nodes forward
/// without a stage and must be registered as nullptr.
using GraphStageFn =
    std::function<void(std::vector<Item>&& inputs, std::vector<Item>& outputs)>;

/// The run configuration: firing intervals are indexed by graph node index.
using GraphExecutorConfig = runtime::ExecutorConfig;

class GraphExecutor {
 public:
  /// One GraphStageFn per node (synchronizers: nullptr). Throws
  /// std::logic_error when the stage count or per-kind callability rules are
  /// violated.
  GraphExecutor(GraphSpec graph, std::vector<GraphStageFn> stages);

  ~GraphExecutor();
  GraphExecutor(const GraphExecutor&) = delete;
  GraphExecutor& operator=(const GraphExecutor&) = delete;

  const GraphSpec& graph() const noexcept { return graph_; }

  /// Run inputs through the graph in virtual time. Node metrics in the
  /// result are indexed by graph node index. Failure codes: "bad_config",
  /// "event_budget", "stage_exception" (message names the node).
  util::Result<runtime::ExecutionMetrics> run(
      std::vector<Item> inputs, const GraphExecutorConfig& config) const;

  /// Per-item oracle: identical results, metrics and failures to run(),
  /// computed by the scalar engine over the same topology.
  util::Result<runtime::ExecutionMetrics> run_reference(
      std::vector<Item> inputs, const GraphExecutorConfig& config) const;

 private:
  GraphSpec graph_;
  std::vector<GraphStageFn> stages_;
  std::vector<runtime::BatchStage> batch_stages_;
  std::unique_ptr<const runtime::detail::Topology> topology_;
};

}  // namespace ripple::graph
