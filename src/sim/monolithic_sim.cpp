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

  // The block's live roots while walking it through the stages, in root
  // order: a root's index into block_arrivals and its surviving-descendant
  // count, never 0. A root whose descendants all died is dropped for good.
  struct LiveRoot {
    std::size_t root;
    std::uint64_t count;
  };
  std::vector<LiveRoot> live;
  // One stage's gain draws, one per surviving descendant in root order, and
  // their running sums (prefix[k] = draws[0] + ... + draws[k - 1]).
  std::vector<dist::OutputCount> draws;
  std::vector<std::uint64_t> prefix;

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

    // Stage 0's draws fill the live roots; a lone stage is the sink, where
    // every root emits itself.
    live.clear();
    if (n == 1) {
      for (std::size_t j = 0; j < m; ++j) live.push_back({j, 1});
    }
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
      // One batched draw for the whole stage, then each live root's outputs
      // are the sum over its descendants' run of draws: the same RNG stream
      // as drawing root by root.
      draws.resize(stage_items);
      pipeline.node(i).gain->sample_n(rng, draws.data(), stage_items);
      std::uint64_t produced = 0;
      if (i == 0) {
        // Each root is its own lone descendant: its draw is its count.
        for (std::size_t j = 0; j < m; ++j) {
          if (draws[j] != 0) live.push_back({j, draws[j]});
          produced += draws[j];
        }
      } else {
        prefix.resize(stage_items + 1);
        prefix[0] = 0;
        for (std::size_t k = 0; k < stage_items; ++k) {
          prefix[k + 1] = prefix[k] + draws[k];
        }
        std::size_t first = 0;  // the root's first descendant in draws
        std::size_t kept = 0;
        for (const LiveRoot& root : live) {
          const std::size_t next = first + root.count;
          const std::uint64_t outputs = prefix[next] - prefix[first];
          first = next;
          if (outputs != 0) live[kept++] = {root.root, outputs};
        }
        live.resize(kept);
        produced = prefix[stage_items];
      }
      node.items_produced += produced;
      stage_items = produced;
    }

    const Cycles finish = start + service;
    server_free = finish;
    metrics.makespan = std::max(metrics.makespan, finish);

    // Dead roots are vacuously on time: nothing to emit.
    metrics.inputs_on_time += m - live.size();
    for (const LiveRoot& root : live) {
      const Cycles latency = finish - block_arrivals[root.root];
      metrics.sink_outputs += root.count;
      for (std::uint64_t c = 0; c < root.count; ++c) {
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

  // Fixed-rate streams never touch the RNG, so their gap can be hoisted out
  // of the per-arrival virtual dispatch without changing any draw.
  const Cycles fixed_gap = arrival_process.fixed_interarrival();
  while (generated < config.input_count) {
    clock += fixed_gap > 0.0 ? fixed_gap
                             : arrival_process.next_interarrival(rng);
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
