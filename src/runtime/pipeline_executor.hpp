// Vector-wide virtual-time execution of REAL stage computations under
// enforced waits.
//
// sim/enforced_sim.hpp validates schedules against *sampled* gain models;
// this executor goes one step further and carries actual data items through
// user-provided stage computations (the MERCATOR-style host-runtime view):
// gains, queue growth and deadline misses emerge from the computation itself
// rather than from a fitted distribution. Time is still virtual — node i's
// firings occupy its configured x_i = t_i + w_i cycles — so runs are exactly
// reproducible and independent of host speed, but every output at the sink
// is a genuine computed result.
//
// The engine is vector-wide end to end: lanes wait in SoA ring queues
// (runtime/soa_queue.hpp), each firing hands its stage one dense batch of up
// to v lanes (runtime/lane_batch.hpp), and stages with SIMD kernels (see
// blast/simd_kernels.hpp, cascade/simd_kernels.hpp) process the whole batch
// with AVX2 when src/device/dispatch.hpp reports support. Per-item StageFn
// callers keep working through adapt_stage, which walks the batch lane by
// lane over std::any items.
//
// PipelineExecutor is thin glue: it describes the chain as a topology (node
// i reads queue i, writes queue i + 1) and runs the one vector-wide event
// loop in runtime/executor_internal.hpp — the same loop GraphExecutor runs
// on DAGs. ReferenceExecutor runs the per-item oracle over the same
// topology; tests/test_runtime_batch.cpp holds the two bit-identical.
//
// On RIPPLE_OBS builds with recording enabled, each consuming firing emits a
// "service" trace span and a "queue_depth" counter sample on the stage's
// track, with "empty_firing" and "deadline_miss" instants mirroring the
// stochastic simulator's timeline (docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "runtime/lane_batch.hpp"
#include "sdf/pipeline.hpp"
#include "sim/metrics.hpp"
#include "util/result.hpp"
#include "util/types.hpp"

namespace ripple::runtime {

namespace detail {
struct Topology;
}

/// One per-item pipeline stage (classic interface): consume `input`, append
/// zero or more outputs. For the final (sink) stage, appended outputs are
/// the pipeline's results. Runs through the batch adapter.
using StageFn = std::function<void(Item&& input, std::vector<Item>& outputs)>;

/// Wrap a per-item stage as a vector-wide BatchStage: the adapter walks the
/// batch lane by lane, finalizing each lane's outputs before touching the
/// next, so a stage that throws mid-batch leaves every earlier lane's
/// outputs intact and no partial lane behind.
BatchStage adapt_stage(StageFn stage);

struct ExecutorConfig {
  std::vector<Cycles> firing_intervals;  ///< x_i per node
  Cycles input_gap = 1.0;                ///< virtual cycles between inputs
  /// Optional irregular arrival schedule: gap k is the time from arrival
  /// k-1 to arrival k (the first gap is measured from t = 0). When
  /// non-empty it must have one positive gap per input, and `input_gap` is
  /// ignored. A constant vector filled with `input_gap` reproduces the
  /// fixed-gap run bit for bit — the service layer uses this to replay the
  /// actual spacing of live ingest batches.
  std::vector<Cycles> input_gaps;
  Cycles deadline = 0.0;                 ///< 0 = no miss accounting
  bool charge_empty_firings = true;
  /// Keep up to this many sink results in ExecutionMetrics::results.
  std::size_t max_collected_results = 1024;
  std::uint64_t max_events = 500'000'000;
};

struct ExecutionMetrics {
  sim::TrialMetrics base;      ///< same counters as the stochastic simulator
  std::vector<Item> results;   ///< first max_collected_results sink outputs
};

/// Typed pipeline inputs: up to kMaxLaneFields u32 columns per item, fed to
/// a typed stage-0 (see LaneView). Arrival order defines root ids.
class BatchInputs {
 public:
  void push(std::uint32_t f0, std::uint32_t f1 = 0, std::uint32_t f2 = 0) {
    cols_[0].push_back(f0);
    cols_[1].push_back(f1);
    cols_[2].push_back(f2);
  }
  std::size_t size() const noexcept { return cols_[0].size(); }
  const std::uint32_t* column(std::size_t f) const { return cols_[f].data(); }

 private:
  std::array<std::vector<std::uint32_t>, kMaxLaneFields> cols_;
};

class PipelineExecutor {
 public:
  /// Classic interface: one StageFn per pipeline node, each adapted to the
  /// vector engine. Throws std::logic_error on arity mismatch.
  PipelineExecutor(sdf::PipelineSpec spec, std::vector<StageFn> stages);

  /// Vector-wide interface: one BatchStage per node. Adjacent stages must
  /// agree on representation (stage i's output_fields feed stage i+1's
  /// input_fields; item-carrying stages only neighbor item-carrying ones).
  /// Throws std::logic_error on arity or representation mismatch.
  PipelineExecutor(sdf::PipelineSpec spec, std::vector<BatchStage> stages);

  ~PipelineExecutor();
  PipelineExecutor(const PipelineExecutor&) = delete;
  PipelineExecutor& operator=(const PipelineExecutor&) = delete;

  const sdf::PipelineSpec& pipeline() const noexcept { return pipeline_; }

  /// Run type-erased inputs through the pipeline in virtual time. Requires
  /// an item-carrying stage 0 (i.e. the StageFn constructor, or batch
  /// stages built with adapt_stage).
  /// Failure codes: "bad_config" (malformed intervals, non-positive input
  /// gap, no inputs), "event_budget", "stage_exception" (a stage threw; the
  /// message names the node, and the executor remains reusable).
  util::Result<ExecutionMetrics> run(std::vector<Item> inputs,
                                     const ExecutorConfig& config) const;

  /// Run typed SoA inputs through the pipeline in virtual time. Requires a
  /// typed stage 0 whose input_fields columns are read from `inputs`.
  /// Failure codes as for run().
  util::Result<ExecutionMetrics> run_batch(const BatchInputs& inputs,
                                           const ExecutorConfig& config) const;

 private:
  sdf::PipelineSpec pipeline_;
  std::vector<BatchStage> stages_;
  std::unique_ptr<const detail::Topology> topology_;
};

}  // namespace ripple::runtime
