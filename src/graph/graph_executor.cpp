#include "graph/graph_executor.hpp"

#include <string>
#include <utility>

#include "runtime/executor_internal.hpp"
#include "util/assert.hpp"

namespace ripple::graph {

using runtime::BatchEmitter;
using runtime::ExecutionMetrics;
using runtime::LaneView;

namespace {

/// Wrap a graph stage as an item-carrying BatchStage: each lane's inputs
/// (one item per in-edge window) go to one scalar call, and its outputs are
/// emitted before the next lane runs.
runtime::BatchStage adapt_graph_stage(GraphStageFn stage) {
  runtime::BatchStage batch;
  batch.carries_items = true;
  batch.fn = [stage = std::move(stage)](const LaneView& in, BatchEmitter& out) {
    // DAG firings are often one or two lanes wide, so two fresh vectors per
    // firing cost more than the lanes' own moves. This thread's buffers are
    // borrowed for the firing instead (and returned after it), so a stage
    // that itself runs an executor gets buffers of its own.
    thread_local std::vector<Item> spare_inputs;
    thread_local std::vector<Item> spare_outputs;
    std::vector<Item> lane_inputs = std::exchange(spare_inputs, {});
    std::vector<Item> outputs = std::exchange(spare_outputs, {});
    for (std::size_t lane = 0; lane < in.lanes; ++lane) {
      lane_inputs.clear();
      for (std::size_t j = 0; j < in.item_windows; ++j) {
        lane_inputs.push_back(std::move(in.items[j * in.lanes + lane]));
      }
      outputs.clear();
      stage(std::move(lane_inputs), outputs);
      for (Item& item : outputs) out.emit_item(lane, std::move(item));
    }
    lane_inputs.clear();
    outputs.clear();
    spare_inputs = std::move(lane_inputs);
    spare_outputs = std::move(outputs);
  };
  return batch;
}

}  // namespace

GraphExecutor::GraphExecutor(GraphSpec graph, std::vector<GraphStageFn> stages)
    : graph_(std::move(graph)),
      stages_(std::move(stages)),
      topology_(graph_topology(graph_)) {
  RIPPLE_REQUIRE(stages_.size() == graph_.size(),
                 "one stage function per graph node");
  batch_stages_.resize(stages_.size());
  for (NodeIndex u = 0; u < graph_.size(); ++u) {
    if (graph_.node(u).kind == NodeKind::kMimoSynchronizer) {
      RIPPLE_REQUIRE(
          !stages_[u],
          "synchronizer nodes forward without a stage (register nullptr)");
    } else {
      RIPPLE_REQUIRE(static_cast<bool>(stages_[u]),
                     "stage function for node '" + graph_.node(u).name +
                         "' must be callable");
      batch_stages_[u] = adapt_graph_stage(stages_[u]);
    }
  }
  runtime::detail::validate_stages(topology_, batch_stages_);
}

util::Result<ExecutionMetrics> GraphExecutor::run(
    std::vector<Item> inputs, const GraphExecutorConfig& config) const {
  return runtime::detail::run_vector_loop(topology_, batch_stages_, nullptr,
                                          &inputs, config);
}

util::Result<ExecutionMetrics> GraphExecutor::run_reference(
    std::vector<Item> inputs, const GraphExecutorConfig& config) const {
  return runtime::detail::run_item_oracle(topology_, stages_, inputs, config);
}

}  // namespace ripple::graph
