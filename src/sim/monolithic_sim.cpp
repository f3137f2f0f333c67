#include "sim/monolithic_sim.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "dist/rng.hpp"
#include "util/assert.hpp"

#if RIPPLE_OBS
#include "obs/obs.hpp"
#endif

namespace ripple::sim {

void simulate_monolithic_into(const sdf::PipelineSpec& pipeline,
                              arrivals::ArrivalProcess& arrival_process,
                              const MonolithicSimConfig& config,
                              TrialMetrics& metrics) {
  RIPPLE_REQUIRE(config.block_size >= 1, "block size must be at least 1");
  RIPPLE_REQUIRE(config.input_count > 0, "need at least one input");

  const std::size_t n = pipeline.size();
  const std::uint32_t v = pipeline.simd_width();
  dist::Xoshiro256 rng(config.seed);

  metrics.reset(n);
  metrics.vector_width = v;
  metrics.sharing_actors = 1;  // the monolithic pipeline runs as one unit
  metrics.arm_latency_histogram(config.deadline);

  Cycles clock = 0.0;          // arrival clock
  Cycles server_free = 0.0;    // when the pipeline finishes its current block
  ItemCount generated = 0;

  std::vector<Cycles> block_arrivals;
  block_arrivals.reserve(static_cast<std::size_t>(config.block_size));

  // Per-item surviving-descendant counts while walking the block through the
  // stages; index parallel to block_arrivals.
  std::vector<std::uint64_t> descendant_counts;
  // One stage's gain draws, one per surviving descendant in root order.
  std::vector<dist::OutputCount> draws;

#if RIPPLE_OBS
  // Blocks run back-to-back on one server, so a single dedicated track
  // (away from the per-node ids) holds non-overlapping "block" spans.
  constexpr std::uint32_t kBlockTrack = 1000;
  obs::TraceWriter trace = obs::TraceWriter::for_current_thread();
  if (trace.active()) {
    obs::TraceSession::global().set_track_name(obs::Domain::kSim, kBlockTrack,
                                               "monolithic blocks");
  }
#endif

  auto process_block = [&](Cycles block_ready) {
    const std::size_t m = block_arrivals.size();
    if (m == 0) return;
    ++metrics.events_processed;  // one block walk = one scheduling event

    const Cycles start = std::max(block_ready, server_free);
    Cycles service = 0.0;
#if RIPPLE_OBS
    if (trace.active()) {
      trace.begin(obs::Domain::kSim, kBlockTrack, "block", start);
      trace.counter(obs::Domain::kSim, kBlockTrack, "block_items", start,
                    static_cast<double>(m));
    }
#endif

    descendant_counts.assign(m, 1);
    std::uint64_t stage_items = m;
    for (NodeIndex i = 0; i < n && stage_items > 0; ++i) {
      NodeMetrics& node = metrics.nodes[i];
      const std::uint64_t firings = (stage_items + v - 1) / v;
      node.firings += firings;
      node.items_consumed += stage_items;
      node.max_queue_length = std::max(node.max_queue_length, stage_items);
      const Cycles stage_service =
          static_cast<double>(firings) * pipeline.service_time(i);
      node.active_time += stage_service;
      service += stage_service;

      if (i + 1 == n) break;  // sink: items exit, no further expansion
      // One batched draw for the whole stage, then each root's outputs are
      // the sum over its descendants' run of draws: the same RNG stream as
      // drawing root by root.
      draws.resize(stage_items);
      pipeline.node(i).gain->sample_n(rng, draws.data(), stage_items);
      const dist::OutputCount* draw = draws.data();
      std::uint64_t produced = 0;
      for (std::size_t j = 0; j < m; ++j) {
        std::uint64_t outputs = 0;
        for (std::uint64_t c = 0; c < descendant_counts[j]; ++c) {
          outputs += *draw++;
        }
        descendant_counts[j] = outputs;
        produced += outputs;
      }
      node.items_produced += produced;
      stage_items = produced;
    }

    const Cycles finish = start + service;
    server_free = finish;
    metrics.makespan = std::max(metrics.makespan, finish);

    for (std::size_t j = 0; j < m; ++j) {
      if (descendant_counts[j] == 0) {
        ++metrics.inputs_on_time;  // vacuously on time: nothing to emit
        continue;
      }
      const Cycles latency = finish - block_arrivals[j];
      for (std::uint64_t c = 0; c < descendant_counts[j]; ++c) {
        ++metrics.sink_outputs;
        metrics.record_latency(latency);
      }
      if (config.deadline > 0.0 && latency > config.deadline * (1.0 + 1e-12)) {
        ++metrics.inputs_missed;
#if RIPPLE_OBS
        if (trace.active()) {
          trace.instant(obs::Domain::kSim, kBlockTrack, "deadline_miss",
                        finish, config.deadline - latency);
        }
#endif
      } else {
        ++metrics.inputs_on_time;
      }
    }
#if RIPPLE_OBS
    if (trace.active()) {
      trace.end(obs::Domain::kSim, kBlockTrack, "block", finish);
    }
#endif
    block_arrivals.clear();
  };

  while (generated < config.input_count) {
    clock += arrival_process.next_interarrival(rng);
    ++generated;
    ++metrics.inputs_arrived;
    block_arrivals.push_back(clock);
    if (block_arrivals.size() ==
        static_cast<std::size_t>(config.block_size)) {
      process_block(clock);
    }
  }
  if (config.flush_final_partial_block) {
    process_block(clock);
  } else {
    // Unprocessed stragglers still count as on time: they never entered the
    // pipeline (matches the paper's steady-state accounting).
    metrics.inputs_on_time += block_arrivals.size();
    block_arrivals.clear();
  }

  if (metrics.makespan <= 0.0) metrics.makespan = clock;
}

TrialMetrics simulate_monolithic(const sdf::PipelineSpec& pipeline,
                                 arrivals::ArrivalProcess& arrival_process,
                                 const MonolithicSimConfig& config) {
  TrialMetrics metrics;
  simulate_monolithic_into(pipeline, arrival_process, config, metrics);
  return metrics;
}

}  // namespace ripple::sim
