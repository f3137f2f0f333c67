// The per-item reference executor: the golden oracle for the vector engine.
//
// ReferenceExecutor runs a chain through the per-item oracle in
// runtime/executor_internal.hpp: one std::any item at a time through
// std::function stages, one std::deque of (item, root) per queue. The same
// oracle serves GraphExecutor::run_reference on DAGs. It shares only the
// topology and run-config validation with the vector-wide loop, so
// agreement between the two is an independent check. It exists for two
// reasons:
//
//   1. Golden oracle — tests/test_runtime_batch.cpp proves the vector
//      engine's sink results, per-node counters and deadline-miss counts are
//      bit-identical to this engine on paper-grid configurations, under both
//      RIPPLE_SIMD=ON and =OFF.
//   2. Benchmark baseline — bench/bench_runtime.cpp reports the batched and
//      SIMD engines' end-to-end speedup against this engine (the
//      BENCH_runtime.json "scalar" series).
//
// Semantics (virtual time, fixed or per-input arrival gaps, deadline
// accounting, failure codes and messages) match PipelineExecutor::run
// exactly; see pipeline_executor.hpp. The oracle emits no trace events.
// Do not extend this engine — new capability goes into the vector engine.
#pragma once

#include <vector>

#include "runtime/pipeline_executor.hpp"
#include "sdf/pipeline.hpp"
#include "util/result.hpp"

namespace ripple::runtime {

class ReferenceExecutor {
 public:
  /// One StageFn per pipeline node. Throws std::logic_error on arity
  /// mismatch.
  ReferenceExecutor(sdf::PipelineSpec spec, std::vector<StageFn> stages);

  const sdf::PipelineSpec& pipeline() const noexcept { return pipeline_; }

  /// Run the given inputs through the pipeline in virtual time.
  /// Failure codes: "bad_config" (malformed intervals, non-positive input
  /// gap, no inputs), "event_budget", "stage_exception" (a stage threw; the
  /// message names the node).
  util::Result<ExecutionMetrics> run(std::vector<Item> inputs,
                                     const ExecutorConfig& config) const;

 private:
  sdf::PipelineSpec pipeline_;
  std::vector<StageFn> stages_;
};

}  // namespace ripple::runtime
