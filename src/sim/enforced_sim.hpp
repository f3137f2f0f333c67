// Discrete-event simulation of the enforced-waits runtime (paper Sections 2
// and 4, used for the empirical study of Section 6.2).
//
// Each node fires on a fixed cadence x_u = t_u + w_u measured from the
// start of its previous firing: it consumes up to v queued items at firing
// start (merges and synchronizers: up to v items matched across their
// in-queues), samples each item's gain per out-queue, and delivers the
// outputs to the out-queues at firing end (t_u later). Firings with an
// empty input vector are charged as active time by default (the paper's
// accounting); setting `charge_empty_firings = false` treats them as
// vacations instead (the alternative the paper mentions parenthetically).
//
// One event loop serves every pipeline shape: it runs over a sim::Topology
// (sim/topology.hpp). The PipelineSpec entry points run it on the chain
// topology; graph::simulate_graph_enforced runs it on a DAG's. The loop is
// templated on a lane count: one lane runs a lone trial, and kTrialLanes
// lanes run a lockstep group of fixed-rate trials over one shared event walk
// (simulate_enforced_waits_lanes, the calibration path).
//
// On RIPPLE_OBS builds with recording enabled, each trial (only lane 0 of a
// lockstep group) emits a trace timeline (docs/OBSERVABILITY.md): a span
// per consuming firing on the node's track ("fire" on a chain,
// "graph.fire" / "graph.tee" / "graph.merge" / "graph.sync" on a DAG), a
// depth counter sample per
// in-queue ("queue_depth" on the node's track on a chain,
// "graph.queue_depth" on per-edge tracks on a DAG), an "empty_firing"
// instant per vacuous firing, and a "deadline_miss" instant (value =
// remaining slack, negative) per missed root input.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "arrivals/arrival_process.hpp"
#include "sdf/pipeline.hpp"
#include "sim/metrics.hpp"
#include "sim/topology.hpp"
#include "util/types.hpp"

namespace ripple::sim {

struct EnforcedSimConfig {
  ItemCount input_count = 50000;  ///< the paper's stream length
  Cycles deadline = 0.0;          ///< D, for per-input miss accounting
  /// Count firings on an empty queue as active time (the paper's default
  /// accounting) rather than as vacations.
  bool charge_empty_firings = true;
  std::uint64_t seed = 0;  ///< gain-sampling RNG stream
  std::uint64_t max_events = 500'000'000;  ///< runaway guard

  /// Optional per-node first-firing times (phase offsets), indexed like the
  /// nodes. Empty = all fire first at t = 0. Staggering each node's phase to
  /// just after its predecessors' firing end (see aligned_phase_offsets)
  /// lets items flow through the pipeline in one pass when cadences line
  /// up, instead of waiting most of a firing interval at each stage.
  std::vector<Cycles> initial_offsets;
};

/// Pipeline-aligned offsets of a chain: node i first fires at
/// sum_{j<i} t_j (+ epsilon per stage so deliveries strictly precede the
/// consuming firing). The chain case of aligned_phase_offsets(Topology).
std::vector<Cycles> aligned_phase_offsets(const sdf::PipelineSpec& pipeline);

/// Run one trial over any topology. `firing_intervals` are the x_u (from a
/// schedule or hand-chosen), indexed like the nodes; the arrival process
/// supplies the input stream. Writes the trial into `out`, which is reset
/// (node counters, histogram bins) but keeps its allocations — so a trial
/// loop that passes the same TrialMetrics touches the allocator for it only
/// on the first trial. Throws std::logic_error on malformed inputs
/// (interval below service time, wrong vector length).
void simulate_enforced_waits_into(const Topology& topology,
                                  const std::vector<Cycles>& firing_intervals,
                                  arrivals::ArrivalProcess& arrival_process,
                                  const EnforcedSimConfig& config,
                                  TrialMetrics& out);

/// Lockstep trials: runs out.size() (1 to kTrialLanes) trials that differ
/// only in their gain seed — trial k draws from seeds[k], and config.seed is
/// not read — under fixed-rate arrivals every `arrival_gap` cycles, writing
/// trial k into out[k]. Each out[k] is exactly what
/// simulate_enforced_waits_into would write for that trial alone with
/// FixedRateArrivals(arrival_gap) and config.seed = seeds[k]. The trials
/// share one event walk, and their gain draws run vectorized across them
/// (dist/lane_kernels.hpp); a topology the shared walk cannot serve (an
/// interval below its service time, an arrival reader with another
/// in-queue) runs its trials one by one instead. A group stops when its
/// shared walk exhausts config.max_events.
void simulate_enforced_waits_lanes(const Topology& topology,
                                   const std::vector<Cycles>& firing_intervals,
                                   Cycles arrival_gap,
                                   const EnforcedSimConfig& config,
                                   std::span<const std::uint64_t> seeds,
                                   std::span<TrialMetrics> out);

/// Chain entry points: the loops above on chain_topology(pipeline).
void simulate_enforced_waits_into(const sdf::PipelineSpec& pipeline,
                                  const std::vector<Cycles>& firing_intervals,
                                  arrivals::ArrivalProcess& arrival_process,
                                  const EnforcedSimConfig& config,
                                  TrialMetrics& out);
void simulate_enforced_waits_lanes(const sdf::PipelineSpec& pipeline,
                                   const std::vector<Cycles>& firing_intervals,
                                   Cycles arrival_gap,
                                   const EnforcedSimConfig& config,
                                   std::span<const std::uint64_t> seeds,
                                   std::span<TrialMetrics> out);
TrialMetrics simulate_enforced_waits(const sdf::PipelineSpec& pipeline,
                                     const std::vector<Cycles>& firing_intervals,
                                     arrivals::ArrivalProcess& arrival_process,
                                     const EnforcedSimConfig& config);

}  // namespace ripple::sim
