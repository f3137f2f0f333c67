// Greedy throughput-oriented scheduling: the prior-work baseline the paper
// positions itself against (MERCATOR-style mappings, its refs [9, 21, 24]).
//
// A throughput scheduler has no notion of deadlines or enforced waits: the
// single processor repeatedly runs whichever node currently has the most
// queued work (preferring full SIMD vectors), and idles only when every
// queue is empty. Each firing takes the node's *exclusive* service time
// t_i / N (one node at a time owns the whole processor — this is how a
// throughput-oriented monolithic implementation actually executes).
//
// Against the paper's strategies this baseline shows why latency needs
// managing: occupancy and throughput are excellent, the processor is active
// only while work exists, but per-item latency is uncontrolled — items can
// sit in queues for as long as the greedy policy keeps harvesting fuller
// vectors elsewhere, and nothing bounds the time to drain a burst.
//
// One firing loop serves every pipeline shape: it runs over a sim::Topology
// (sim/topology.hpp). On a DAG the most queued input counts every in-queue,
// merges and synchronizers consume only matched lanes, and ties go to the
// node later in the topology's start order (deeper toward the sink).
// simulate_greedy_throughput(PipelineSpec) runs it on the chain topology;
// graph::simulate_graph_greedy runs it on a DAG's.
//
// On RIPPLE_OBS builds with recording enabled, each firing emits a span
// (the node's span name: "fire" on a chain, "graph.*" on a DAG) and a
// depth counter sample of its matched input on the chosen node's track,
// plus a "deadline_miss" instant per late sink output; firings are globally
// exclusive, so spans never overlap (docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>

#include "arrivals/arrival_process.hpp"
#include "sdf/pipeline.hpp"
#include "sim/metrics.hpp"
#include "sim/topology.hpp"
#include "util/types.hpp"

namespace ripple::sim {

struct GreedySimConfig {
  ItemCount input_count = 20000;
  Cycles deadline = 0.0;  ///< only for miss accounting; never scheduled for
  std::uint64_t seed = 0;

  /// Policy knob: fire only when some node can consume at least this many
  /// items per in-queue, unless the stream has ended (drain). 1 = fully
  /// eager; v = full vectors only. Higher thresholds raise occupancy and
  /// latency together.
  std::uint32_t min_batch = 1;

  std::uint64_t max_firings = 500'000'000;  ///< runaway guard
};

/// Run one trial of the greedy throughput schedule over any topology.
TrialMetrics simulate_greedy_throughput(const Topology& topology,
                                        arrivals::ArrivalProcess& arrival_process,
                                        const GreedySimConfig& config);

/// Chain entry point: the loop above on chain_topology(pipeline).
TrialMetrics simulate_greedy_throughput(const sdf::PipelineSpec& pipeline,
                                        arrivals::ArrivalProcess& arrival_process,
                                        const GreedySimConfig& config);

}  // namespace ripple::sim
