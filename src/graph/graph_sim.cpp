#include "graph/graph_sim.hpp"

namespace ripple::graph {

sim::TrialMetrics simulate_graph_enforced(
    const GraphSpec& graph, const std::vector<Cycles>& firing_intervals,
    arrivals::ArrivalProcess& arrival_process,
    const sim::EnforcedSimConfig& config) {
  sim::TrialMetrics metrics;
  sim::simulate_enforced_waits_into(graph_topology(graph), firing_intervals,
                                    arrival_process, config, metrics);
  return metrics;
}

sim::TrialMetrics simulate_graph_greedy(const GraphSpec& graph,
                                        arrivals::ArrivalProcess& arrival_process,
                                        const sim::GreedySimConfig& config) {
  return sim::simulate_greedy_throughput(graph_topology(graph),
                                         arrival_process, config);
}

}  // namespace ripple::graph
