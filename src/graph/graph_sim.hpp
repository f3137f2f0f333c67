// Discrete-event simulation of GraphSpec DAGs: the enforced-waits simulator
// and the greedy throughput baseline, run over graph_topology(graph).
//
// These are thin wrappers. The event loop and the firing loop live in
// sim/enforced_sim.cpp and sim/greedy_sim.cpp and serve chains and DAGs
// alike; the graph supplies the per-edge queues, routing and gains through
// its topology. Each node fires on its fixed cadence x_u; a firing consumes
// up to v items from its in-edge queues (elementwise nodes consume one
// matched item per in-edge per lane), samples per-out-edge gains, and
// delivers the outputs to the out-edge queues at firing end. A linear graph
// gives the same metrics, indexed by graph node, as the chain simulators on
// its lowered PipelineSpec.
//
// On RIPPLE_OBS builds each consuming firing emits a kind-specific span
// ("graph.fire" / "graph.tee" / "graph.merge" / "graph.sync") on the node's
// track plus a "graph.queue_depth" counter sample per in-edge on the edge's
// own track (track id = node count + edge index); vacuous firings and late
// roots reuse the "empty_firing" / "deadline_miss" instants.
#pragma once

#include <vector>

#include "arrivals/arrival_process.hpp"
#include "graph/graph_spec.hpp"
#include "sim/enforced_sim.hpp"
#include "sim/greedy_sim.hpp"
#include "sim/metrics.hpp"
#include "util/types.hpp"

namespace ripple::graph {

/// Run one enforced-waits trial. `firing_intervals` and
/// `config.initial_offsets` are indexed by graph node index, and so are the
/// node metrics in the result. Throws std::logic_error on malformed inputs.
sim::TrialMetrics simulate_graph_enforced(
    const GraphSpec& graph, const std::vector<Cycles>& firing_intervals,
    arrivals::ArrivalProcess& arrival_process,
    const sim::EnforcedSimConfig& config);

/// Greedy throughput baseline on the DAG: the single processor repeatedly
/// runs whichever node has the most queued input (ties to the deeper node in
/// topological order), with exclusive service time t_u / N per firing.
sim::TrialMetrics simulate_graph_greedy(const GraphSpec& graph,
                                        arrivals::ArrivalProcess& arrival_process,
                                        const sim::GreedySimConfig& config);

}  // namespace ripple::graph
