// The vector-wide executor against the seed per-item engine: golden
// equivalence on the real mini-BLAST pipeline (typed batch path and adapter
// path, under both pinned dispatch levels), a randomized equivalence fuzz
// over irregular pipelines and arrival schedules, config-validation
// regressions, and the adapter's throw-mid-batch contract.
#include <gtest/gtest.h>

#include <any>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "blast/batch_stages.hpp"
#include "blast/measure.hpp"
#include "blast/sequence.hpp"
#include "blast/stages.hpp"
#include "core/enforced_waits.hpp"
#include "device/dispatch.hpp"
#include "dist/gain.hpp"
#include "dist/rng.hpp"
#include "runtime/pipeline_executor.hpp"
#include "runtime/reference_executor.hpp"
#include "sdf/pipeline.hpp"

namespace ripple::runtime {
namespace {

using device::SimdLevel;

class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) {
    device::set_simd_override(level);
  }
  ~ScopedSimdLevel() { device::set_simd_override(std::nullopt); }
};

// ---------------------------------------------------------------------------
// Golden equivalence on the mini-BLAST pipeline
// ---------------------------------------------------------------------------

struct BlastHarness {
  blast::SequencePair pair;
  blast::BlastStages::Config stage_config;
  blast::BlastStages stages;
  sdf::PipelineSpec spec;
  ExecutorConfig config;
  std::size_t windows;

  BlastHarness() : pair(make_pair()), stages(pair, stage_config),
                   spec(make_spec()), windows(12000) {
    core::EnforcedWaitsStrategy strategy(
        spec, core::EnforcedWaitsConfig{{2.0, 4.0, 9.0, 6.0}});
    const double tau0 = spec.mean_service_per_input() * 4.0;
    const double deadline = 600.0 * spec.service_time(3);
    auto schedule = strategy.solve(tau0, deadline);
    EXPECT_TRUE(schedule.ok());
    config.firing_intervals = schedule.value().firing_intervals;
    config.input_gap = tau0;
    config.deadline = deadline;
    config.max_collected_results = 256;
  }

  static blast::SequencePair make_pair() {
    dist::Xoshiro256 rng(404);
    blast::SequencePairConfig pair_config;
    pair_config.subject_length = 1 << 15;
    pair_config.query_length = 1 << 13;
    return blast::make_sequence_pair(pair_config, rng);
  }

  sdf::PipelineSpec make_spec() {
    blast::MeasureConfig measure_config;
    measure_config.window_count = 12000;
    const auto measurement = blast::measure_pipeline(stages, measure_config);
    auto spec_result = measurement.to_pipeline_spec(128);
    EXPECT_TRUE(spec_result.ok());
    return spec_result.value();
  }

  std::vector<Item> item_inputs() const {
    std::vector<Item> inputs;
    inputs.reserve(windows);
    for (std::size_t w = 0; w < windows; ++w) {
      inputs.emplace_back(
          static_cast<std::uint32_t>(w % stages.input_count()));
    }
    return inputs;
  }
};

void expect_metrics_identical(const ExecutionMetrics& got,
                              const ExecutionMetrics& want) {
  ASSERT_EQ(got.base.nodes.size(), want.base.nodes.size());
  for (std::size_t i = 0; i < got.base.nodes.size(); ++i) {
    const auto& g = got.base.nodes[i];
    const auto& w = want.base.nodes[i];
    EXPECT_EQ(g.firings, w.firings) << "node " << i;
    EXPECT_EQ(g.empty_firings, w.empty_firings) << "node " << i;
    EXPECT_EQ(g.items_consumed, w.items_consumed) << "node " << i;
    EXPECT_EQ(g.items_produced, w.items_produced) << "node " << i;
    EXPECT_EQ(g.max_queue_length, w.max_queue_length) << "node " << i;
    EXPECT_EQ(g.active_time, w.active_time) << "node " << i;
  }
  EXPECT_EQ(got.base.inputs_arrived, want.base.inputs_arrived);
  EXPECT_EQ(got.base.inputs_missed, want.base.inputs_missed);
  EXPECT_EQ(got.base.inputs_on_time, want.base.inputs_on_time);
  EXPECT_EQ(got.base.sink_outputs, want.base.sink_outputs);
  EXPECT_EQ(got.base.makespan, want.base.makespan);
  EXPECT_EQ(got.base.output_latency.count(), want.base.output_latency.count());
  EXPECT_EQ(got.base.output_latency.mean(), want.base.output_latency.mean());
  EXPECT_EQ(got.base.output_latency.max(), want.base.output_latency.max());
}

void expect_alignments_identical(const std::vector<Item>& got,
                                 const std::vector<Item>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto g = std::any_cast<blast::Alignment>(got[i]);
    const auto w = std::any_cast<blast::Alignment>(want[i]);
    EXPECT_EQ(g.subject_pos, w.subject_pos) << "result " << i;
    EXPECT_EQ(g.query_pos, w.query_pos) << "result " << i;
    EXPECT_EQ(g.score, w.score) << "result " << i;
  }
}

TEST(BatchExecutorGolden, TypedPathMatchesReferenceUnderBothLevels) {
  const BlastHarness h;
  const ReferenceExecutor reference(h.spec,
                                    blast::make_item_stages(h.stages));
  const auto golden = reference.run(h.item_inputs(), h.config);
  ASSERT_TRUE(golden.ok()) << golden.error().message;
  ASSERT_GT(golden.value().base.sink_outputs, 0u);

  const PipelineExecutor vector_engine(h.spec,
                                       blast::make_batch_stages(h.stages));
  const auto inputs = blast::make_batch_inputs(h.stages, h.windows);
  for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    ScopedSimdLevel pin(level);
    const auto got = vector_engine.run_batch(inputs, h.config);
    ASSERT_TRUE(got.ok()) << got.error().message;
    expect_metrics_identical(got.value(), golden.value());
    expect_alignments_identical(got.value().results, golden.value().results);
  }
}

TEST(BatchExecutorGolden, AdapterPathMatchesReference) {
  const BlastHarness h;
  const ReferenceExecutor reference(h.spec,
                                    blast::make_item_stages(h.stages));
  const auto golden = reference.run(h.item_inputs(), h.config);
  ASSERT_TRUE(golden.ok()) << golden.error().message;

  const PipelineExecutor adapter_engine(h.spec,
                                        blast::make_item_stages(h.stages));
  const auto got = adapter_engine.run(h.item_inputs(), h.config);
  ASSERT_TRUE(got.ok()) << got.error().message;
  expect_metrics_identical(got.value(), golden.value());
  expect_alignments_identical(got.value().results, golden.value().results);
}

// ---------------------------------------------------------------------------
// Randomized equivalence fuzz: irregular pipelines, irregular arrivals
// ---------------------------------------------------------------------------

/// The fuzz stages' per-lane gain is an irregular (but deterministic)
/// function of the lane value: 0, 1 or 2 outputs per input, so queues grow
/// and drain unevenly and firings routinely straddle batch boundaries. The
/// typed and item-carrying stages compute the same values.
std::uint32_t fuzz_mix(std::uint32_t x, std::uint32_t salt) {
  return (x ^ salt) * 2654435761u;
}
std::uint32_t fuzz_count(std::uint32_t mixed) { return (mixed >> 13) % 3; }

BatchStage make_fuzz_stage(std::uint32_t salt) {
  BatchStage stage;
  stage.input_fields = 1;
  stage.output_fields = 1;
  stage.fn = [salt](const LaneView& in, BatchEmitter& out) {
    for (std::size_t lane = 0; lane < in.lanes; ++lane) {
      const std::uint32_t mixed = fuzz_mix(in.field[0][lane], salt);
      for (std::uint32_t c = 0; c < fuzz_count(mixed); ++c) {
        out.emit(lane, mixed + c);
      }
    }
  };
  return stage;
}

StageFn make_fuzz_item_stage(std::uint32_t salt) {
  return [salt](Item&& input, std::vector<Item>& outputs) {
    const std::uint32_t mixed =
        fuzz_mix(std::any_cast<std::uint32_t>(input), salt);
    for (std::uint32_t c = 0; c < fuzz_count(mixed); ++c) {
      outputs.emplace_back(mixed + c);
    }
  };
}

struct FuzzCase {
  sdf::PipelineSpec spec;
  std::vector<std::uint32_t> salts;
  ExecutorConfig config;
  std::vector<std::uint32_t> values;

  explicit FuzzCase(sdf::PipelineSpec s) : spec(std::move(s)) {}

  std::vector<BatchStage> batch_stages() const {
    std::vector<BatchStage> stages;
    for (std::uint32_t salt : salts) stages.push_back(make_fuzz_stage(salt));
    return stages;
  }
  std::vector<StageFn> item_stages() const {
    std::vector<StageFn> stages;
    for (std::uint32_t salt : salts) {
      stages.push_back(make_fuzz_item_stage(salt));
    }
    return stages;
  }
  BatchInputs batch_inputs() const {
    BatchInputs inputs;
    for (std::uint32_t value : values) inputs.push(value);
    return inputs;
  }
  std::vector<Item> item_inputs() const {
    return std::vector<Item>(values.begin(), values.end());
  }
};

FuzzCase make_fuzz_case(std::uint64_t seed) {
  dist::Xoshiro256 rng(seed);

  const std::size_t nodes = 2 + rng.uniform_below(3);
  const std::uint32_t width = 4u << rng.uniform_below(3);  // 4, 8, 16
  sdf::PipelineBuilder builder("fuzz");
  builder.simd_width(width);
  std::vector<Cycles> service(nodes);
  std::vector<std::uint32_t> salts;
  for (std::size_t i = 0; i < nodes; ++i) {
    service[i] = 1.0 + 9.0 * rng.uniform01();
    builder.add_node("n" + std::to_string(i), service[i],
                     dist::make_deterministic(1));
    salts.push_back(static_cast<std::uint32_t>(seed * 1000 + i));
  }
  FuzzCase c(builder.build().take());
  c.salts = std::move(salts);

  for (std::size_t i = 0; i < nodes; ++i) {
    c.config.firing_intervals.push_back(service[i] * (1.0 + 1.5 * rng.uniform01()));
  }
  const std::size_t input_count = 200 + rng.uniform_below(400);
  const double tau = c.spec.mean_service_per_input() * (1.0 + 3.0 * rng.uniform01());
  if (rng.uniform_below(4) != 0) {
    // Irregular arrival schedule: bursts (short gaps) and lulls (long gaps).
    for (std::size_t k = 0; k < input_count; ++k) {
      c.config.input_gaps.push_back(tau * (0.1 + 1.9 * rng.uniform01()));
    }
  } else {
    c.config.input_gap = tau;
  }
  if (rng.uniform_below(2) != 0) {
    c.config.deadline = tau * static_cast<double>(4 + rng.uniform_below(60));
  }
  c.config.charge_empty_firings = rng.uniform_below(2) != 0;
  c.config.max_collected_results = 64 + rng.uniform_below(512);

  for (std::size_t k = 0; k < input_count; ++k) {
    c.values.push_back(static_cast<std::uint32_t>(rng.uniform_below(1u << 20)));
  }
  return c;
}

/// Typed results materialize as u32 tuples; the reference emits bare u32s.
std::uint32_t first_field(const Item& item) {
  using Tuple = std::array<std::uint32_t, kMaxLaneFields>;
  if (const auto* tuple = std::any_cast<Tuple>(&item)) return (*tuple)[0];
  return std::any_cast<std::uint32_t>(item);
}

void expect_values_identical(const std::vector<Item>& got,
                             const std::vector<Item>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t r = 0; r < got.size(); ++r) {
    EXPECT_EQ(first_field(got[r]), first_field(want[r])) << "result " << r;
  }
}

TEST(ExecutorFuzz, RandomPipelinesMatchReference) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const FuzzCase c = make_fuzz_case(seed);
    const ReferenceExecutor reference(c.spec, c.item_stages());
    const auto golden = reference.run(c.item_inputs(), c.config);
    ASSERT_TRUE(golden.ok()) << golden.error().message;

    const PipelineExecutor adapter_engine(c.spec, c.item_stages());
    const auto adapter = adapter_engine.run(c.item_inputs(), c.config);
    ASSERT_TRUE(adapter.ok()) << adapter.error().message;
    {
      SCOPED_TRACE("adapter path");
      expect_metrics_identical(adapter.value(), golden.value());
      expect_values_identical(adapter.value().results, golden.value().results);
    }

    const PipelineExecutor typed_engine(c.spec, c.batch_stages());
    const auto typed = typed_engine.run_batch(c.batch_inputs(), c.config);
    ASSERT_TRUE(typed.ok()) << typed.error().message;
    {
      SCOPED_TRACE("typed path");
      expect_metrics_identical(typed.value(), golden.value());
      expect_values_identical(typed.value().results, golden.value().results);
    }
  }
}

TEST(ExecutorFuzz, AllFilteredMakespanFallbackMatchesReference) {
  // Every input is dropped at stage 0, so no sink output ever sets the
  // makespan and every engine must take the arrival-clock fallback — under
  // both the fixed-gap and the per-input-gap arithmetic.
  sdf::PipelineSpec spec = sdf::PipelineBuilder("filter")
                               .simd_width(4)
                               .add_node("drop", 3.0, dist::make_deterministic(1))
                               .add_node("sink", 2.0, dist::make_deterministic(1))
                               .build()
                               .take();
  std::vector<BatchStage> typed_stages(2);
  typed_stages[0].fn = [](const LaneView&, BatchEmitter&) {};
  typed_stages[1].fn = [](const LaneView& in, BatchEmitter& out) {
    for (std::size_t lane = 0; lane < in.lanes; ++lane) {
      out.emit(lane, in.field[0][lane]);
    }
  };
  const std::vector<StageFn> item_stages = {
      [](Item&&, std::vector<Item>&) {},
      [](Item&& input, std::vector<Item>& outputs) {
        outputs.push_back(std::move(input));
      }};
  const PipelineExecutor typed_engine(spec, typed_stages);
  const PipelineExecutor adapter_engine(spec, item_stages);
  const ReferenceExecutor reference(spec, item_stages);

  BatchInputs inputs;
  std::vector<Item> items;
  for (std::uint32_t k = 0; k < 37; ++k) {
    inputs.push(k);
    items.emplace_back(k);
  }

  for (const bool per_input : {false, true}) {
    SCOPED_TRACE(per_input ? "per-input gaps" : "fixed gap");
    ExecutorConfig config;
    config.firing_intervals = {5.0, 4.0};
    config.input_gap = 2.5;
    if (per_input) {
      for (std::uint32_t k = 0; k < 37; ++k) {
        config.input_gaps.push_back(1.0 + 0.25 * static_cast<double>(k % 7));
      }
    }
    const auto golden = reference.run(items, config);
    ASSERT_TRUE(golden.ok());
    EXPECT_EQ(golden.value().base.sink_outputs, 0u);
    EXPECT_GT(golden.value().base.makespan, 0.0);

    const auto typed = typed_engine.run_batch(inputs, config);
    ASSERT_TRUE(typed.ok());
    expect_metrics_identical(typed.value(), golden.value());
    const auto adapter = adapter_engine.run(items, config);
    ASSERT_TRUE(adapter.ok());
    expect_metrics_identical(adapter.value(), golden.value());
  }
}

// ---------------------------------------------------------------------------
// Config validation regressions (both engines report "bad_config")
// ---------------------------------------------------------------------------

sdf::PipelineSpec toy_spec() {
  return sdf::PipelineBuilder("toy")
      .simd_width(4)
      .add_node("double", 10.0, dist::make_deterministic(1))
      .add_node("filter", 12.0, dist::make_deterministic(1))
      .build()
      .take();
}

std::vector<StageFn> toy_stage_fns() {
  std::vector<StageFn> fns;
  fns.push_back([](Item&& input, std::vector<Item>& outputs) {
    outputs.emplace_back(std::any_cast<int>(input) * 2);
  });
  fns.push_back([](Item&& input, std::vector<Item>& outputs) {
    const int value = std::any_cast<int>(input);
    if (value % 4 == 0) outputs.emplace_back(value);
  });
  return fns;
}

std::vector<Item> toy_inputs(int count) {
  std::vector<Item> items;
  for (int i = 1; i <= count; ++i) items.emplace_back(i);
  return items;
}

TEST(BatchExecutorValidation, NonPositiveInputGapIsBadConfig) {
  const PipelineExecutor engine(toy_spec(), toy_stage_fns());
  const ReferenceExecutor reference(toy_spec(), toy_stage_fns());
  for (double gap : {0.0, -3.0}) {
    ExecutorConfig config;
    config.firing_intervals = {40.0, 40.0};
    config.input_gap = gap;
    const auto got = engine.run(toy_inputs(4), config);
    ASSERT_FALSE(got.ok()) << "gap " << gap;
    EXPECT_EQ(got.error().code, "bad_config") << "gap " << gap;
    const auto ref = reference.run(toy_inputs(4), config);
    ASSERT_FALSE(ref.ok()) << "gap " << gap;
    EXPECT_EQ(ref.error().code, "bad_config") << "gap " << gap;
  }
}

TEST(BatchExecutorValidation, FiringIntervalArityMismatchIsBadConfig) {
  const PipelineExecutor engine(toy_spec(), toy_stage_fns());
  const ReferenceExecutor reference(toy_spec(), toy_stage_fns());
  for (const std::vector<Cycles>& intervals :
       {std::vector<Cycles>{40.0}, std::vector<Cycles>{40.0, 40.0, 40.0},
        std::vector<Cycles>{}}) {
    ExecutorConfig config;
    config.firing_intervals = intervals;
    const auto got = engine.run(toy_inputs(4), config);
    ASSERT_FALSE(got.ok()) << intervals.size() << " intervals";
    EXPECT_EQ(got.error().code, "bad_config");
    const auto ref = reference.run(toy_inputs(4), config);
    ASSERT_FALSE(ref.ok());
    EXPECT_EQ(ref.error().code, "bad_config");
  }
}

TEST(BatchExecutorValidation, RepresentationMismatchThrows) {
  // A typed stage downstream of an item-carrying stage (and mismatched
  // column arity) is a construction error, not a runtime failure.
  std::vector<BatchStage> mixed(2);
  mixed[0] = adapt_stage([](Item&& input, std::vector<Item>& outputs) {
    outputs.push_back(std::move(input));
  });
  mixed[1].fn = [](const LaneView&, BatchEmitter&) {};
  mixed[1].carries_items = false;
  EXPECT_THROW(PipelineExecutor(toy_spec(), std::move(mixed)),
               std::logic_error);

  std::vector<BatchStage> misaligned(2);
  misaligned[0].fn = [](const LaneView&, BatchEmitter&) {};
  misaligned[0].output_fields = 2;
  misaligned[1].fn = [](const LaneView&, BatchEmitter&) {};
  misaligned[1].input_fields = 3;
  EXPECT_THROW(PipelineExecutor(toy_spec(), std::move(misaligned)),
               std::logic_error);
}

TEST(BatchExecutorValidation, IntervalBelowServiceTimeNamesTheNode) {
  const PipelineExecutor engine(toy_spec(), toy_stage_fns());
  const ReferenceExecutor reference(toy_spec(), toy_stage_fns());
  ExecutorConfig config;
  config.firing_intervals = {40.0, 11.0};  // node "filter" needs 12
  const auto got = engine.run(toy_inputs(4), config);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error().code, "bad_config");
  EXPECT_EQ(got.error().message,
            "firing interval below service time at node 'filter'");
  const auto ref = reference.run(toy_inputs(4), config);
  ASSERT_FALSE(ref.ok());
  EXPECT_EQ(ref.error().code, "bad_config");
  EXPECT_EQ(ref.error().message, got.error().message);
}

// ---------------------------------------------------------------------------
// Emitter allocation behavior (raw kernel interface)
// ---------------------------------------------------------------------------

TEST(BatchEmitterAllocation, ReserveGrowsGeometrically) {
  // Many small raw reservations within one firing: the column buffer must
  // reallocate O(log n) times, not once per call. Distinct data() pointers
  // bound the reallocation count.
  BatchEmitter emitter;
  emitter.reset(1, 1, false);
  std::vector<const std::uint32_t*> bases;
  for (std::uint32_t i = 0; i < 4096; ++i) {
    auto cursors = emitter.reserve(1);
    *cursors[0] = i;
    emitter.commit_lane(0, 1);
    if (bases.empty() || bases.back() != emitter.column(0)) {
      bases.push_back(emitter.column(0));
    }
  }
  emitter.finish_raw();
  ASSERT_EQ(emitter.total(), 4096u);
  EXPECT_LE(bases.size(), 16u) << "reserve() reallocated per call";
  for (std::uint32_t i = 0; i < 4096; ++i) ASSERT_EQ(emitter.column(0)[i], i);
}

TEST(BatchEmitterAllocation, SteadyStateFiringsAreAllocationFree) {
  // A warmed emitter re-armed by reset() must serve identical firings from
  // retained capacity: the column base pointer never moves again, through
  // both the raw reserve/commit interface and per-item emit().
  BatchEmitter emitter;
  const auto fire = [&emitter](std::size_t lanes, bool raw) {
    emitter.reset(lanes, 2, false);
    if (raw) {
      auto cursors = emitter.reserve(3 * lanes);
      for (std::size_t k = 0; k < 3 * lanes; ++k) {
        cursors[0][k] = static_cast<std::uint32_t>(k);
        cursors[1][k] = static_cast<std::uint32_t>(k + 1);
      }
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        emitter.commit_lane(lane, 3);
      }
      emitter.finish_raw();
    } else {
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        for (int c = 0; c < 3; ++c) {
          emitter.emit(lane, static_cast<std::uint32_t>(lane), 7);
        }
      }
    }
  };

  fire(64, true);  // warm-up allocates
  const std::uint32_t* warm0 = emitter.column(0);
  const std::uint32_t* warm1 = emitter.column(1);
  for (int rep = 0; rep < 100; ++rep) {
    fire(64, (rep & 1) != 0);
    EXPECT_EQ(emitter.column(0), warm0) << "rep " << rep;
    EXPECT_EQ(emitter.column(1), warm1) << "rep " << rep;
    ASSERT_EQ(emitter.total(), 192u);
  }
}

// ---------------------------------------------------------------------------
// Adapter throw-mid-batch contract
// ---------------------------------------------------------------------------

TEST(BatchExecutorThrow, AdapterKeepsEarlierLanesOnThrow) {
  // Directly drive an adapted stage: lane 2 of 4 throws after lanes 0 and 1
  // emitted. Their outputs must survive, and no partial lane may follow.
  BatchStage stage = adapt_stage([](Item&& input, std::vector<Item>& outputs) {
    const int value = std::any_cast<int>(input);
    if (value == 30) throw std::runtime_error("poison item");
    outputs.emplace_back(value + 1);
    outputs.emplace_back(value + 2);
  });

  std::vector<Item> lanes;
  for (int value : {10, 20, 30, 40}) lanes.emplace_back(value);
  LaneView view;
  view.lanes = lanes.size();
  view.items = lanes.data();

  BatchEmitter emitter;
  emitter.reset(lanes.size(), 1, true);
  EXPECT_THROW(stage.fn(view, emitter), std::runtime_error);

  // Lanes 0 and 1 fully delivered; the throwing lane and its successors
  // contributed nothing.
  ASSERT_EQ(emitter.lanes(), 4u);
  EXPECT_EQ(emitter.counts()[0], 2u);
  EXPECT_EQ(emitter.counts()[1], 2u);
  EXPECT_EQ(emitter.counts()[2], 0u);
  EXPECT_EQ(emitter.counts()[3], 0u);
  ASSERT_EQ(emitter.total(), 4u);
  EXPECT_EQ(std::any_cast<int>(emitter.items()[0]), 11);
  EXPECT_EQ(std::any_cast<int>(emitter.items()[1]), 12);
  EXPECT_EQ(std::any_cast<int>(emitter.items()[2]), 21);
  EXPECT_EQ(std::any_cast<int>(emitter.items()[3]), 22);
}

TEST(BatchExecutorThrow, ExecutorSurfacesStageExceptionAndStaysUsable) {
  auto spec = toy_spec();
  int throws_armed = 1;
  std::vector<StageFn> fns;
  fns.push_back([&throws_armed](Item&& input, std::vector<Item>& outputs) {
    const int value = std::any_cast<int>(input);
    if (value == 3 && throws_armed > 0) {
      --throws_armed;
      throw std::runtime_error("poison item");
    }
    outputs.emplace_back(value * 2);
  });
  fns.push_back([](Item&& input, std::vector<Item>& outputs) {
    outputs.push_back(std::move(input));
  });
  const PipelineExecutor engine(std::move(spec), std::move(fns));

  ExecutorConfig config;
  config.firing_intervals = {40.0, 40.0};
  config.input_gap = 5.0;
  const auto failed = engine.run(toy_inputs(8), config);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().code, "stage_exception");
  EXPECT_NE(failed.error().message.find("double"), std::string::npos)
      << "failure names the throwing node: " << failed.error().message;

  // The poison consumed, a fresh run on the same executor is clean and
  // complete — no partial lanes leaked into any internal queue.
  const auto clean = engine.run(toy_inputs(8), config);
  ASSERT_TRUE(clean.ok()) << clean.error().message;
  EXPECT_EQ(clean.value().base.sink_outputs, 8u);
  EXPECT_EQ(clean.value().base.inputs_arrived, 8u);
  ASSERT_EQ(clean.value().results.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(std::any_cast<int>(clean.value().results[i]),
              2 * static_cast<int>(i + 1));
  }
}

TEST(BatchExecutorThrow, ReferenceSurfacesStageException) {
  // The oracle reports a throwing stage exactly as the vector engine does:
  // a "stage_exception" failure naming the node, not an escaping throw.
  std::vector<StageFn> fns = toy_stage_fns();
  fns[1] = [](Item&& input, std::vector<Item>&) {
    if (std::any_cast<int>(input) == 6) throw std::runtime_error("poison");
  };
  const PipelineExecutor engine(toy_spec(), fns);
  const ReferenceExecutor reference(toy_spec(), fns);
  ExecutorConfig config;
  config.firing_intervals = {40.0, 40.0};
  config.input_gap = 5.0;

  const auto got = engine.run(toy_inputs(8), config);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error().code, "stage_exception");
  const auto ref = reference.run(toy_inputs(8), config);
  ASSERT_FALSE(ref.ok());
  EXPECT_EQ(ref.error().code, "stage_exception");
  EXPECT_EQ(ref.error().message, "stage 'filter' threw: poison");
  EXPECT_EQ(ref.error().message, got.error().message);
}

}  // namespace
}  // namespace ripple::runtime
