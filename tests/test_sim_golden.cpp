// Golden-metrics pin: the optimized enforced-waits simulator (indexed
// scheduler, arrival fast path, batched gain sampling, ring-buffer queues)
// must reproduce the original heap-based reference implementation
// *bit-for-bit* on fixed seeds. The reference below is a frozen copy of the
// pre-optimization simulate_enforced_waits; if the production simulator ever
// reorders events, consumes the RNG stream differently, or changes how a
// metric is accumulated, these comparisons fail.
//
// The monolithic simulator is pinned by digest instead: an FNV-1a hash of
// every TrialMetrics field over a grid of block sizes, arrival processes and
// flush settings, taken from the per-root block walk it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "blast/canonical.hpp"
#include "core/enforced_waits.hpp"
#include "dist/rng.hpp"
#include "sim/enforced_sim.hpp"
#include "sim/event_queue.hpp"
#include "sim/monolithic_sim.hpp"
#include "util/assert.hpp"

namespace ripple::sim {
namespace {

using RootId = std::uint32_t;

enum EventPriority : int {
  kPriorityFireEnd = 0,
  kPriorityArrival = 1,
  kPriorityFireStart = 2,
};

struct EventPayload {
  enum class Kind : std::uint8_t { kFireEnd, kArrival, kFireStart };
  Kind kind;
  NodeIndex node = 0;
};

/// Frozen copy of the original simulator (std::priority_queue-era event
/// queue, per-node std::deque, one virtual gain sample per item). Only
/// addition: it records events_processed so every TrialMetrics field can be
/// compared.
TrialMetrics reference_simulate(const sdf::PipelineSpec& pipeline,
                                const std::vector<Cycles>& firing_intervals,
                                arrivals::ArrivalProcess& arrival_process,
                                const EnforcedSimConfig& config) {
  const std::size_t n = pipeline.size();
  dist::Xoshiro256 rng(config.seed);
  const std::uint32_t v = pipeline.simd_width();

  TrialMetrics metrics;
  metrics.nodes.resize(n);
  metrics.vector_width = v;
  metrics.sharing_actors = n;
  metrics.arm_latency_histogram(config.deadline);

  std::vector<std::deque<RootId>> queues(n);
  std::vector<std::vector<RootId>> in_flight(n);

  std::vector<Cycles> root_arrival;
  root_arrival.reserve(config.input_count);
  std::vector<bool> root_missed(config.input_count, false);

  std::uint64_t live_items = 0;
  bool arrivals_done = false;

  EventQueue<EventPayload> events;

  events.push(arrival_process.next_interarrival(rng), kPriorityArrival,
              {EventPayload::Kind::kArrival, 0});
  for (NodeIndex i = 0; i < n; ++i) {
    const Cycles offset =
        config.initial_offsets.empty() ? 0.0 : config.initial_offsets[i];
    events.push(offset, kPriorityFireStart, {EventPayload::Kind::kFireStart, i});
  }

  std::uint64_t processed_events = 0;
  while (!events.empty() && processed_events < config.max_events) {
    const auto event = events.pop();
    ++processed_events;
    const Cycles now = event.time;

    switch (event.payload.kind) {
      case EventPayload::Kind::kArrival: {
        const RootId root = static_cast<RootId>(root_arrival.size());
        root_arrival.push_back(now);
        ++metrics.inputs_arrived;
        queues[0].push_back(root);
        ++live_items;
        metrics.nodes[0].max_queue_length =
            std::max<std::uint64_t>(metrics.nodes[0].max_queue_length,
                                    queues[0].size());
        if (root_arrival.size() < config.input_count) {
          events.push(now + arrival_process.next_interarrival(rng),
                      kPriorityArrival, {EventPayload::Kind::kArrival, 0});
        } else {
          arrivals_done = true;
        }
        break;
      }

      case EventPayload::Kind::kFireStart: {
        const NodeIndex i = event.payload.node;
        NodeMetrics& node = metrics.nodes[i];
        auto& queue = queues[i];
        const std::uint32_t consumed =
            static_cast<std::uint32_t>(std::min<std::uint64_t>(queue.size(), v));

        if (consumed > 0 || config.charge_empty_firings) {
          ++node.firings;
          if (consumed == 0) ++node.empty_firings;
          node.active_time += pipeline.service_time(i);
        }

        if (consumed > 0) {
          node.items_consumed += consumed;
          auto& bundle = in_flight[i];
          const bool is_sink = (i + 1 == n);
          for (std::uint32_t k = 0; k < consumed; ++k) {
            const RootId root = queue.front();
            queue.pop_front();
            if (is_sink) {
              bundle.push_back(root);
            } else {
              const dist::OutputCount outputs =
                  pipeline.node(i).gain->sample(rng);
              node.items_produced += outputs;
              for (dist::OutputCount o = 0; o < outputs; ++o) {
                bundle.push_back(root);
              }
              live_items += outputs;
            }
          }
          if (!is_sink) live_items -= consumed;
          events.push(now + pipeline.service_time(i), kPriorityFireEnd,
                      {EventPayload::Kind::kFireEnd, i});
        }

        if (!(arrivals_done && live_items == 0)) {
          events.push(now + firing_intervals[i], kPriorityFireStart,
                      {EventPayload::Kind::kFireStart, i});
        }
        break;
      }

      case EventPayload::Kind::kFireEnd: {
        const NodeIndex i = event.payload.node;
        auto& bundle = in_flight[i];
        const bool is_sink = (i + 1 == n);
        if (is_sink) {
          for (const RootId root : bundle) {
            ++metrics.sink_outputs;
            const Cycles latency = now - root_arrival[root];
            metrics.record_latency(latency);
            if (config.deadline > 0.0 &&
                latency > config.deadline * (1.0 + 1e-12)) {
              if (!root_missed[root]) {
                root_missed[root] = true;
                ++metrics.inputs_missed;
              }
            }
            metrics.makespan = std::max(metrics.makespan, now);
          }
          live_items -= bundle.size();
        } else {
          auto& next_queue = queues[i + 1];
          for (const RootId root : bundle) next_queue.push_back(root);
          metrics.nodes[i + 1].max_queue_length =
              std::max<std::uint64_t>(metrics.nodes[i + 1].max_queue_length,
                                      next_queue.size());
        }
        bundle.clear();
        break;
      }
    }
  }

  metrics.events_processed = processed_events;
  metrics.inputs_on_time = metrics.inputs_arrived - metrics.inputs_missed;
  if (metrics.makespan <= 0.0 && !root_arrival.empty()) {
    metrics.makespan = root_arrival.back();
  }
  return metrics;
}

/// Exact, field-by-field comparison. Doubles are compared with EXPECT_EQ on
/// purpose: the optimized simulator accumulates every statistic in the same
/// order as the reference, so the results must be identical bits, not merely
/// close.
void expect_identical(const TrialMetrics& got, const TrialMetrics& want) {
  ASSERT_EQ(got.nodes.size(), want.nodes.size());
  for (std::size_t i = 0; i < want.nodes.size(); ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    EXPECT_EQ(got.nodes[i].firings, want.nodes[i].firings);
    EXPECT_EQ(got.nodes[i].empty_firings, want.nodes[i].empty_firings);
    EXPECT_EQ(got.nodes[i].items_consumed, want.nodes[i].items_consumed);
    EXPECT_EQ(got.nodes[i].items_produced, want.nodes[i].items_produced);
    EXPECT_EQ(got.nodes[i].active_time, want.nodes[i].active_time);
    EXPECT_EQ(got.nodes[i].max_queue_length, want.nodes[i].max_queue_length);
  }
  EXPECT_EQ(got.inputs_arrived, want.inputs_arrived);
  EXPECT_EQ(got.inputs_on_time, want.inputs_on_time);
  EXPECT_EQ(got.inputs_missed, want.inputs_missed);
  EXPECT_EQ(got.sink_outputs, want.sink_outputs);
  EXPECT_EQ(got.output_latency.count(), want.output_latency.count());
  EXPECT_EQ(got.output_latency.mean(), want.output_latency.mean());
  EXPECT_EQ(got.output_latency.variance(), want.output_latency.variance());
  EXPECT_EQ(got.output_latency.min(), want.output_latency.min());
  EXPECT_EQ(got.output_latency.max(), want.output_latency.max());
  ASSERT_EQ(got.latency_histogram.has_value(),
            want.latency_histogram.has_value());
  if (want.latency_histogram.has_value()) {
    ASSERT_EQ(got.latency_histogram->bin_count(),
              want.latency_histogram->bin_count());
    EXPECT_EQ(got.latency_histogram->total(), want.latency_histogram->total());
    for (std::size_t b = 0; b < want.latency_histogram->bin_count(); ++b) {
      EXPECT_EQ(got.latency_histogram->bin(b), want.latency_histogram->bin(b))
          << "histogram bin " << b;
    }
  }
  EXPECT_EQ(got.makespan, want.makespan);
  EXPECT_EQ(got.vector_width, want.vector_width);
  EXPECT_EQ(got.events_processed, want.events_processed);
  EXPECT_EQ(got.sharing_actors, want.sharing_actors);
}

std::vector<Cycles> solved_intervals(const sdf::PipelineSpec& pipeline,
                                     double tau0, double deadline) {
  core::EnforcedWaitsStrategy strategy(
      pipeline, core::EnforcedWaitsConfig{blast::paper_calibrated_b()});
  auto solved = strategy.solve(tau0, deadline);
  RIPPLE_REQUIRE(solved.ok(), "golden test probe point must be feasible");
  return solved.value().firing_intervals;
}

TEST(EnforcedGolden, CanonicalBlastFixedRate) {
  const auto pipeline = blast::canonical_blast_pipeline();
  const auto intervals = solved_intervals(pipeline, 20.0, 1.85e5);
  for (std::uint64_t seed : {1u, 17u, 12345u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    EnforcedSimConfig config;
    config.input_count = 4000;
    config.deadline = 1.85e5;
    config.seed = seed;
    arrivals::FixedRateArrivals ref_arrivals(20.0);
    const auto want = reference_simulate(pipeline, intervals, ref_arrivals,
                                         config);
    arrivals::FixedRateArrivals got_arrivals(20.0);
    const auto got = simulate_enforced_waits(pipeline, intervals, got_arrivals,
                                             config);
    expect_identical(got, want);
  }
}

TEST(EnforcedGolden, CanonicalBlastPoissonArrivals) {
  const auto pipeline = blast::canonical_blast_pipeline();
  const auto intervals = solved_intervals(pipeline, 30.0, 2.5e5);
  for (std::uint64_t seed : {2u, 99u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    EnforcedSimConfig config;
    config.input_count = 3000;
    config.deadline = 2.5e5;
    config.seed = seed;
    arrivals::PoissonArrivals ref_arrivals(30.0);
    const auto want = reference_simulate(pipeline, intervals, ref_arrivals,
                                         config);
    arrivals::PoissonArrivals got_arrivals(30.0);
    const auto got = simulate_enforced_waits(pipeline, intervals, got_arrivals,
                                             config);
    expect_identical(got, want);
  }
}

TEST(EnforcedGolden, PhaseOffsetsAndEmptyFiringCharging) {
  const auto pipeline = blast::canonical_blast_pipeline();
  const auto intervals = solved_intervals(pipeline, 25.0, 2.0e5);
  EnforcedSimConfig config;
  config.input_count = 2000;
  config.deadline = 2.0e5;
  config.seed = 7;
  config.initial_offsets = aligned_phase_offsets(pipeline);
  config.charge_empty_firings = true;
  arrivals::FixedRateArrivals ref_arrivals(25.0);
  const auto want = reference_simulate(pipeline, intervals, ref_arrivals,
                                       config);
  arrivals::FixedRateArrivals got_arrivals(25.0);
  const auto got = simulate_enforced_waits(pipeline, intervals, got_arrivals,
                                           config);
  expect_identical(got, want);
}

/// Bursty (MMPP) arrivals produce same-timestamp pile-ups when the burst
/// state's gaps are tiny relative to service times — a stress test for the
/// tie-break ordering in the arrival fast path.
TEST(EnforcedGolden, BurstyArrivalsTieStress) {
  const auto pipeline = blast::canonical_blast_pipeline();
  const auto intervals = solved_intervals(pipeline, 40.0, 3.0e5);
  EnforcedSimConfig config;
  config.input_count = 2000;
  config.deadline = 3.0e5;
  config.seed = 21;
  arrivals::BurstyArrivals::Config bursty;
  bursty.tau_quiet = 120.0;
  bursty.tau_burst = 2.0;
  bursty.mean_quiet_dwell = 2e4;
  bursty.mean_burst_dwell = 5e3;
  arrivals::BurstyArrivals ref_arrivals(bursty);
  const auto want = reference_simulate(pipeline, intervals, ref_arrivals,
                                       config);
  arrivals::BurstyArrivals got_arrivals(bursty);
  const auto got = simulate_enforced_waits(pipeline, intervals, got_arrivals,
                                           config);
  expect_identical(got, want);
}

/// FNV-1a over every TrialMetrics field, histogram bins included.
class MetricsDigest {
 public:
  void add(const TrialMetrics& m) {
    mix(m.nodes.size());
    for (const NodeMetrics& node : m.nodes) {
      mix(node.firings);
      mix(node.empty_firings);
      mix(node.items_consumed);
      mix(node.items_produced);
      mix(node.active_time);
      mix(node.max_queue_length);
    }
    mix(m.inputs_arrived);
    mix(m.inputs_on_time);
    mix(m.inputs_missed);
    mix(m.sink_outputs);
    mix(m.output_latency.count());
    mix(m.output_latency.mean());
    mix(m.output_latency.variance());
    mix(m.output_latency.min());
    mix(m.output_latency.max());
    mix(m.latency_histogram.has_value());
    if (m.latency_histogram.has_value()) {
      mix(m.latency_histogram->total());
      for (std::size_t b = 0; b < m.latency_histogram->bin_count(); ++b) {
        mix(m.latency_histogram->bin(b));
      }
    }
    mix(m.makespan);
    mix(m.vector_width);
    mix(m.events_processed);
    mix(m.sharing_actors);
  }

  std::uint64_t value() const noexcept { return hash_; }

 private:
  template <typename T>
  void mix(const T& value) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      hash_ ^= bytes[i];
      hash_ *= 1099511628211ULL;
    }
  }

  std::uint64_t hash_ = 1469598103934665603ULL;
};

/// Digest of simulate_monolithic over blocks {1, 7, 128, 1664, 3039, 10112}
/// (a lone input, a prime, one full vector, and three blocks that leave a
/// partial final block), fixed and Poisson arrivals, flush on and off.
std::uint64_t monolithic_digest(const sdf::PipelineSpec& pipeline, Cycles tau0,
                                Cycles deadline) {
  MetricsDigest digest;
  std::uint64_t seed = 0;
  for (const std::int64_t block : {1, 7, 128, 1664, 3039, 10112}) {
    for (const bool poisson : {false, true}) {
      for (const bool flush : {true, false}) {
        MonolithicSimConfig config;
        config.block_size = block;
        config.input_count = 25000;
        config.deadline = deadline;
        config.seed = ++seed;
        config.flush_final_partial_block = flush;
        arrivals::FixedRateArrivals fixed(tau0);
        arrivals::PoissonArrivals random(tau0);
        arrivals::ArrivalProcess& arrivals =
            poisson ? static_cast<arrivals::ArrivalProcess&>(random) : fixed;
        digest.add(simulate_monolithic(pipeline, arrivals, config));
      }
    }
  }
  return digest.value();
}

TEST(MonolithicSimGolden, CanonicalBlast) {
  // D = 1e5 at tau0 = 20: the small blocks meet it, the large ones miss.
  EXPECT_EQ(monolithic_digest(blast::canonical_blast_pipeline(), 20.0, 1e5),
            0x5f477d7d79c3a2cbULL);
}

TEST(MonolithicSimGolden, DeterministicFanOut) {
  // Every root survives with 3 * 2 = 6 descendants at the sink.
  auto spec = sdf::PipelineBuilder("fan_out")
                  .simd_width(8)
                  .add_node("a", 30.0, dist::make_deterministic(3))
                  .add_node("b", 12.0, dist::make_deterministic(2))
                  .add_node("c", 5.0, dist::make_deterministic(1))
                  .build();
  EXPECT_EQ(monolithic_digest(std::move(spec).take(), 40.0, 2e5),
            0x36e4873ff46955e6ULL);
}

TEST(MonolithicSimGolden, ZeroGainEdge) {
  // Half the roots survive the first stage and none the second: the sink
  // never fires and every input is vacuously on time.
  auto spec = sdf::PipelineBuilder("zero_gain")
                  .simd_width(16)
                  .add_node("a", 50.0, dist::make_bernoulli(0.5))
                  .add_node("b", 80.0, dist::make_deterministic(0))
                  .add_node("c", 10.0, dist::make_deterministic(1))
                  .build();
  EXPECT_EQ(monolithic_digest(std::move(spec).take(), 10.0, 5e4),
            0x49c619c8c3b22372ULL);
}

}  // namespace
}  // namespace ripple::sim
