#include "obs/trace_export.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "arrivals/arrival_process.hpp"
#include "blast/canonical.hpp"
#include "core/enforced_waits.hpp"
#include "dist/gain.hpp"
#include "dist/rng.hpp"
#include "graph/graph_executor.hpp"
#include "graph/scenarios.hpp"
#include "obs/obs.hpp"
#include "runtime/pipeline_executor.hpp"
#include "sdf/pipeline.hpp"
#include "sim/enforced_sim.hpp"
#include "sim/trial_runner.hpp"
#include "util/jsonv.hpp"
#include "util/thread_pool.hpp"

namespace ripple::obs {
namespace {

TraceEvent make_event(const char* name, double ts, TraceKind kind,
                      Domain domain, std::uint32_t track, double value = 0.0) {
  TraceEvent event;
  event.name = name;
  event.ts = ts;
  event.value = value;
  event.track = track;
  event.domain = domain;
  event.kind = kind;
  return event;
}

/// A tiny two-domain sequence exercising every phase type.
std::vector<TraceEvent> sample_events() {
  return {
      make_event("fire", 1.0, TraceKind::kBegin, Domain::kSim, 0),
      make_event("queue_depth", 1.0, TraceKind::kCounter, Domain::kSim, 0, 3.0),
      make_event("deadline_miss", 2.5, TraceKind::kInstant, Domain::kSim, 0,
                 -10.0),
      make_event("fire", 4.0, TraceKind::kEnd, Domain::kSim, 0),
      make_event("trial", 0.0, TraceKind::kBegin, Domain::kHost, 1),
      make_event("trial", 9.0, TraceKind::kEnd, Domain::kHost, 1),
  };
}

// The exact bytes the exporter must produce for sample_events(): the schema
// header, process/thread metadata from sorted sets, then the events in input
// order. Any change to the document format must update this golden (and
// docs/OBSERVABILITY.md).
constexpr const char* kGolden =
    "{\"schema\":\"ripple.trace.v1\",\"displayTimeUnit\":\"ms\","
    "\"otherData\":{\"dropped_events\":0,"
    "\"sim_clock\":\"virtual cycles rendered as us\","
    "\"host_clock\":\"wall-clock us since session epoch\"},"
    "\"traceEvents\":["
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
    "\"args\":{\"name\":\"host (wall-clock us)\"}},"
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":100,"
    "\"args\":{\"name\":\"sim ring 0 (virtual cycles)\"}},"
    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
    "\"args\":{\"name\":\"worker 1\"}},"
    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":100,\"tid\":0,"
    "\"args\":{\"name\":\"seed_filter\"}},"
    "{\"name\":\"fire\",\"ph\":\"B\",\"pid\":100,\"tid\":0,\"ts\":1},"
    "{\"name\":\"queue_depth\",\"ph\":\"C\",\"pid\":100,\"tid\":0,\"ts\":1,"
    "\"args\":{\"value\":3}},"
    "{\"name\":\"deadline_miss\",\"ph\":\"i\",\"pid\":100,\"tid\":0,"
    "\"ts\":2.5,\"s\":\"t\",\"args\":{\"value\":-10}},"
    "{\"name\":\"fire\",\"ph\":\"E\",\"pid\":100,\"tid\":0,\"ts\":4},"
    "{\"name\":\"trial\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":0},"
    "{\"name\":\"trial\",\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":9}"
    "]}";

class ExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceSession::global().clear();
    set_enabled(false);
  }
  void TearDown() override {
    set_enabled(false);
    TraceSession::global().clear();
  }
};

TEST_F(ExportTest, GoldenDocumentIsByteExact) {
  auto& session = TraceSession::global();
  session.set_track_name(Domain::kSim, 0, "seed_filter");
  session.set_track_name(Domain::kHost, 1, "worker 1");
  std::ostringstream out;
  write_chrome_trace(out, sample_events(), session);
  EXPECT_EQ(out.str(), kGolden);
}

TEST_F(ExportTest, DocumentIsDeterministicAndParses) {
  auto& session = TraceSession::global();
  session.set_track_name(Domain::kSim, 0, "seed_filter");
  std::ostringstream first;
  write_chrome_trace(first, sample_events(), session);
  std::ostringstream second;
  write_chrome_trace(second, sample_events(), session);
  EXPECT_EQ(first.str(), second.str());

  auto document = util::parse_json(first.str());
  ASSERT_TRUE(document.ok()) << document.error().message;
  const util::JsonValue* events = document.value().find("traceEvents");
  ASSERT_NE(events, nullptr);
  // 2 process_name + 2 thread_name metadata rows precede the 6 events
  // (track 1 falls back to a generated "track 1" label).
  EXPECT_EQ(events->as_array().size(), 10u);
}

TEST_F(ExportTest, ValidatorAcceptsWellNestedSpans) {
  auto nested = sample_events();
  auto verdict = validate_span_nesting(nested);
  EXPECT_TRUE(verdict.ok()) << verdict.error().message;
}

TEST_F(ExportTest, ValidatorRejectsMismatchedAndUnclosedSpans) {
  // End without a begin.
  std::vector<TraceEvent> orphan_end = {
      make_event("fire", 1.0, TraceKind::kEnd, Domain::kSim, 0)};
  EXPECT_EQ(validate_span_nesting(orphan_end).error().code, "bad_nesting");

  // End name does not match the innermost open span.
  std::vector<TraceEvent> mismatched = {
      make_event("fire", 1.0, TraceKind::kBegin, Domain::kSim, 0),
      make_event("service", 2.0, TraceKind::kEnd, Domain::kSim, 0)};
  EXPECT_EQ(validate_span_nesting(mismatched).error().code, "bad_nesting");

  // Begin that never closes.
  std::vector<TraceEvent> unclosed = {
      make_event("fire", 1.0, TraceKind::kBegin, Domain::kSim, 0)};
  EXPECT_EQ(validate_span_nesting(unclosed).error().code, "bad_nesting");

  // Same names on different tracks are independent lanes, not a mismatch.
  std::vector<TraceEvent> lanes = {
      make_event("fire", 1.0, TraceKind::kBegin, Domain::kSim, 0),
      make_event("fire", 2.0, TraceKind::kBegin, Domain::kSim, 1),
      make_event("fire", 3.0, TraceKind::kEnd, Domain::kSim, 0),
      make_event("fire", 4.0, TraceKind::kEnd, Domain::kSim, 1)};
  EXPECT_TRUE(validate_span_nesting(lanes).ok());
}

// ------------------------------------------------- end-to-end (paper cell)
//
// Runs the enforced-waits simulator for one cell of the paper grid
// (tau0 = 20, D = 1.85e5) with tracing on and checks the drained timeline:
// spans nest, the document is byte-deterministic across identical runs, and
// the deadline-miss instants agree with the simulator's own miss count.

#if RIPPLE_OBS

std::string traced_paper_cell_run(std::uint64_t* misses_out) {
  auto& session = TraceSession::global();
  session.clear();
  set_enabled(true);

  const auto pipeline = blast::canonical_blast_pipeline();
  const core::EnforcedWaitsStrategy strategy(
      pipeline, core::EnforcedWaitsConfig{blast::paper_calibrated_b()});
  auto solved = strategy.solve(20.0, 1.85e5);
  EXPECT_TRUE(solved.ok());

  arrivals::FixedRateArrivals arrival_process(20.0);
  sim::EnforcedSimConfig config;
  config.input_count = 2000;
  config.deadline = 1.85e5;
  config.seed = 2021;
  const auto metrics = sim::simulate_enforced_waits(
      pipeline, solved.value().firing_intervals, arrival_process, config);
  if (misses_out != nullptr) *misses_out = metrics.inputs_missed;

  set_enabled(false);
  const auto events = session.drain();
  EXPECT_GT(events.size(), 0u);
  auto verdict = validate_span_nesting(events);
  EXPECT_TRUE(verdict.ok()) << verdict.error().message;

  std::uint64_t miss_instants = 0;
  for (const TraceEvent& event : events) {
    if (event.kind == TraceKind::kInstant &&
        std::string_view(event.name) == "deadline_miss") {
      ++miss_instants;
    }
  }
  EXPECT_EQ(miss_instants, metrics.inputs_missed);

  std::ostringstream out;
  write_chrome_trace(out, events, session);
  return out.str();
}

TEST_F(ExportTest, PaperCellTraceIsDeterministicAndWellNested) {
  std::uint64_t misses = 0;
  const std::string first = traced_paper_cell_run(&misses);
  const std::string second = traced_paper_cell_run(nullptr);
  EXPECT_EQ(first, second);
}

// ------------------------------------------------- multi-trial sim traces
//
// A traced 4-trial enforced run on a 4-thread pool: every trial would write
// the same node tracks at the same virtual times, so only trial 0 records.
// The sim timeline must then be byte-identical across runs, and equal to
// trial 0 run alone. Host "trial" spans carry wall-clock times and the sim
// process id names whichever worker ran trial 0, so the comparison keeps
// the kSim events and renumbers their ring.

struct PoolRunCase {
  sdf::PipelineSpec pipeline = blast::canonical_blast_pipeline();
  std::vector<Cycles> intervals;
  PoolRunCase() {
    const core::EnforcedWaitsStrategy strategy(
        pipeline, core::EnforcedWaitsConfig{blast::paper_calibrated_b()});
    intervals = strategy.solve(20.0, 1.85e5).value().firing_intervals;
  }
  sim::EnforcedSimConfig config(std::uint64_t trial) const {
    sim::EnforcedSimConfig c;
    c.input_count = 4000;
    c.deadline = 1.85e5;
    c.seed = dist::derive_seed({7, trial});
    return c;
  }
};

std::string sim_timeline() {
  auto& session = TraceSession::global();
  std::vector<TraceEvent> sim_events;
  for (TraceEvent event : session.drain()) {
    if (event.domain != Domain::kSim) continue;
    event.ring = 0;
    sim_events.push_back(event);
  }
  EXPECT_GT(sim_events.size(), 0u);
  EXPECT_EQ(session.dropped(), 0u);
  std::ostringstream out;
  write_chrome_trace(out, sim_events, session);
  return out.str();
}

template <typename Run>
std::string traced_sim_timeline(Run&& run) {
  auto& session = TraceSession::global();
  session.clear();
  set_enabled(true);
  run();
  set_enabled(false);
  return sim_timeline();
}

TEST_F(ExportTest, PooledTrialTracesAreDeterministic) {
  const PoolRunCase c;
  util::ThreadPool pool(4);
  auto pooled = [&] {
    sim::run_trials(
        [&](std::uint64_t trial) {
          arrivals::FixedRateArrivals arrivals(20.0);
          return sim::simulate_enforced_waits(c.pipeline, c.intervals,
                                              arrivals, c.config(trial));
        },
        4, &pool);
  };
  auto grouped = [&] {
    sim::run_trial_groups_into(
        [&](std::uint64_t first, std::span<sim::TrialMetrics> out) {
          std::vector<std::uint64_t> seeds;
          for (std::size_t k = 0; k < out.size(); ++k) {
            seeds.push_back(c.config(first + k).seed);
          }
          sim::simulate_enforced_waits_lanes(c.pipeline, c.intervals, 20.0,
                                             c.config(0), seeds, out);
        },
        4, &pool);
  };
  auto alone = [&] {
    arrivals::FixedRateArrivals arrivals(20.0);
    sim::simulate_enforced_waits(c.pipeline, c.intervals, arrivals,
                                 c.config(0));
  };
  const std::string first = traced_sim_timeline(pooled);
  EXPECT_EQ(traced_sim_timeline(pooled), first);
  EXPECT_EQ(traced_sim_timeline(alone), first);
  EXPECT_EQ(traced_sim_timeline(grouped), first);
}

// ------------------------------------------------- executor trace digests
//
// Pins the exported Chrome trace of three executor runs byte for byte (as
// FNV-1a digests): a typed chain through PipelineExecutor::run_batch and
// both DAG scenarios through GraphExecutor::run. Any change to which spans,
// counters or instants the executors emit, their names, tracks or virtual
// timestamps, or to the firing order itself moves a digest.

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

template <typename Run>
std::string traced_export(Run&& run) {
  auto& session = TraceSession::global();
  session.clear();
  set_enabled(true);
  run();
  set_enabled(false);
  const auto events = session.drain();
  EXPECT_GT(events.size(), 0u);
  auto verdict = validate_span_nesting(events);
  EXPECT_TRUE(verdict.ok()) << verdict.error().message;
  std::ostringstream out;
  write_chrome_trace(out, events, session);
  return out.str();
}

/// Three typed stages with irregular gains (0-2 outputs per lane), a
/// deadline tight enough to miss, and charged empty firings, so the trace
/// carries service spans, queue-depth counters and both instant kinds.
std::string traced_toy_chain() {
  const sdf::PipelineSpec spec =
      sdf::PipelineBuilder("toy_typed")
          .simd_width(4)
          .add_node("spread", 6.0, dist::make_deterministic(1))
          .add_node("thin", 4.0, dist::make_deterministic(1))
          .add_node("emit", 3.0, dist::make_deterministic(1))
          .build()
          .take();
  std::vector<runtime::BatchStage> stages(3);
  for (std::uint32_t s = 0; s < 3; ++s) {
    stages[s].fn = [s](const runtime::LaneView& in, runtime::BatchEmitter& out) {
      for (std::size_t lane = 0; lane < in.lanes; ++lane) {
        const std::uint32_t mixed = (in.field[0][lane] ^ (s + 1)) * 2654435761u;
        const std::uint32_t count = s == 2 ? 1 : (mixed >> 13) % 3;
        for (std::uint32_t c = 0; c < count; ++c) out.emit(lane, mixed + c);
      }
    };
  }
  const runtime::PipelineExecutor executor(spec, std::move(stages));
  runtime::BatchInputs inputs;
  for (std::uint32_t k = 0; k < 200; ++k) inputs.push(k * 7919u);
  runtime::ExecutorConfig config;
  config.firing_intervals = {9.0, 7.0, 5.0};
  config.input_gap = 2.5;
  config.deadline = 30.0;
  return traced_export([&] {
    const auto result = executor.run_batch(inputs, config);
    EXPECT_TRUE(result.ok()) << result.error().message;
    EXPECT_GT(result.value().base.inputs_missed, 0u);
  });
}

std::string traced_scenario(graph::GraphScenario scenario, Cycles gap) {
  const graph::GraphExecutor executor(scenario.graph, scenario.stages);
  graph::GraphExecutorConfig config;
  config.firing_intervals = scenario.graph.minimal_firing_intervals();
  for (Cycles& x : config.firing_intervals) x *= 1.25;
  config.input_gap = gap;
  config.deadline = 9000.0;
  return traced_export([&] {
    const auto result = executor.run(graph::scenario_inputs(300, 11), config);
    EXPECT_TRUE(result.ok()) << result.error().message;
  });
}

TEST_F(ExportTest, ExecutorTracesArePinned) {
  EXPECT_EQ(fnv1a(traced_toy_chain()), 0x4cbee760748b3dccULL);
  EXPECT_EQ(fnv1a(traced_scenario(graph::branching_blast_scenario(), 4.0)),
            0xa39c7b3f39c97f1cULL);
  EXPECT_EQ(fnv1a(traced_scenario(graph::telemetry_fanin_scenario(), 12.0)),
            0xed4beff95e14c2dcULL);
}

#else

TEST_F(ExportTest, PaperCellTraceIsDeterministicAndWellNested) {
  GTEST_SKIP() << "simulator instrumentation requires -DRIPPLE_OBS=ON";
}

TEST_F(ExportTest, ExecutorTracesArePinned) {
  GTEST_SKIP() << "executor instrumentation requires -DRIPPLE_OBS=ON";
}

TEST_F(ExportTest, PooledTrialTracesAreDeterministic) {
  GTEST_SKIP() << "simulator instrumentation requires -DRIPPLE_OBS=ON";
}

#endif  // RIPPLE_OBS

}  // namespace
}  // namespace ripple::obs
