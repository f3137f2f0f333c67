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
// A linear graph delegates wholesale to PipelineExecutor on the lowered
// PipelineSpec (stages wrapped through the per-item adapter), so results,
// metrics, and exported traces on chains are bit-identical to the existing
// engine.
//
// Branching graphs run the DAG-native engine: one sequential event loop on
// the calling thread, like the chain engine. Each FireStart windows its
// node's consumed lanes out of the in-edge queues into one reused scratch,
// runs the stage lane by lane, and commits counts and follow-up events
// before the next event pops. Same-timestamp firings consume disjoint
// queues and every event a firing pushes lies strictly after `now`, so the
// pop order — (time, priority, sequence) — is the firing order.
//
// run_reference() is the seed-style per-item oracle: one std::deque of
// (item, root) per edge, the same event cadence, scalar stage calls. The
// vector engine is golden-tested against it (tests/test_graph_executor.cpp).
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

struct GraphExecutorConfig {
  std::vector<Cycles> firing_intervals;  ///< x_u per node, by graph index
  Cycles input_gap = 1.0;                ///< virtual cycles between inputs
  /// Optional irregular arrival schedule (one positive gap per input); when
  /// non-empty `input_gap` is ignored.
  std::vector<Cycles> input_gaps;
  Cycles deadline = 0.0;  ///< 0 = no miss accounting
  bool charge_empty_firings = true;
  std::size_t max_collected_results = 1024;
  std::uint64_t max_events = 500'000'000;
};

class GraphExecutor {
 public:
  /// One GraphStageFn per node (synchronizers: nullptr). Throws
  /// std::logic_error when the stage count or per-kind callability rules are
  /// violated.
  GraphExecutor(GraphSpec graph, std::vector<GraphStageFn> stages);

  GraphExecutor(const GraphExecutor&) = delete;
  GraphExecutor& operator=(const GraphExecutor&) = delete;

  const GraphSpec& graph() const noexcept { return graph_; }

  /// True when run() delegates to the linear-chain PipelineExecutor.
  bool delegates_to_chain() const noexcept { return linear_ != nullptr; }

  /// Run inputs through the graph in virtual time. Node metrics in the
  /// result are indexed by graph node index. Failure codes: "bad_config",
  /// "event_budget", "stage_exception" (message names the node).
  util::Result<runtime::ExecutionMetrics> run(
      std::vector<Item> inputs, const GraphExecutorConfig& config) const;

  /// Per-item oracle: identical results and metrics to run(), computed by
  /// the scalar seed-style engine. Never delegates — on linear graphs this
  /// independently cross-checks the chain delegation.
  util::Result<runtime::ExecutionMetrics> run_reference(
      std::vector<Item> inputs, const GraphExecutorConfig& config) const;

 private:
  util::Result<runtime::ExecutionMetrics> execute_dag(
      std::vector<Item>& inputs, const GraphExecutorConfig& config) const;

  GraphSpec graph_;
  std::vector<GraphStageFn> stages_;

  // Linear delegation: chain position -> graph node index, plus the wrapped
  // chain executor over the lowered pipeline.
  std::vector<NodeIndex> chain_order_;
  std::unique_ptr<runtime::PipelineExecutor> linear_;
};

}  // namespace ripple::graph
