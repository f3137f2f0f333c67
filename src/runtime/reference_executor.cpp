// The per-item oracle (see executor_internal.hpp) and the ReferenceExecutor
// chain wrapper around it.
#include "runtime/reference_executor.hpp"

#include <algorithm>
#include <deque>
#include <exception>
#include <string>
#include <utility>

#include "runtime/executor_internal.hpp"
#include "sim/event_queue.hpp"
#include "util/assert.hpp"

namespace ripple::runtime {

namespace detail {

util::Result<ExecutionMetrics> run_item_oracle(
    const Topology& topology, const std::vector<ItemStageFn>& stages,
    std::vector<Item>& inputs, const ExecutorConfig& config) {
  using R = util::Result<ExecutionMetrics>;
  if (auto invalid = validate_run_config(topology, inputs.size(), config)) {
    return *std::move(invalid);
  }
  const std::size_t n = topology.nodes.size();
  const std::uint32_t v = topology.simd_width;
  const std::size_t input_count = inputs.size();
  const bool per_input_gaps = !config.input_gaps.empty();

  ExecutionMetrics metrics;
  metrics.base.nodes.resize(n);
  metrics.base.vector_width = v;
  metrics.base.sharing_actors = n;
  metrics.base.arm_latency_histogram(config.deadline);

  using Lane = std::pair<Item, RootId>;
  const std::vector<NodeIndex>& reader = topology.reader;
  std::vector<std::deque<Lane>> queues(reader.size());
  // Per-node in-flight outputs, one bundle per out-queue (one at the sink).
  std::vector<std::vector<std::vector<Lane>>> in_flight(n);
  for (NodeIndex u = 0; u < n; ++u) {
    in_flight[u].resize(
        std::max<std::size_t>(1, topology.nodes[u].out_queues.size()));
  }

  std::vector<Cycles> root_arrival(input_count, 0.0);
  std::vector<bool> root_missed(input_count, false);

  std::uint64_t live_items = 0;
  std::size_t next_input = 0;
  Cycles next_arrival = per_input_gaps ? config.input_gaps[0] : config.input_gap;
  bool arrivals_done = false;

  std::deque<Lane>& arrivals = queues[topology.arrival_queue];
  sim::NodeMetrics& source = metrics.base.nodes[reader[topology.arrival_queue]];
  const auto materialize_arrivals = [&](Cycles now) {
    while (!arrivals_done && next_arrival <= now) {
      const RootId root = static_cast<RootId>(next_input);
      root_arrival[root] = next_arrival;
      ++metrics.base.inputs_arrived;
      arrivals.emplace_back(std::move(inputs[next_input]), root);
      source.max_queue_length =
          std::max<std::uint64_t>(source.max_queue_length, arrivals.size());
      ++live_items;
      ++next_input;
      if (next_input == input_count) {
        arrivals_done = true;
      } else {
        next_arrival +=
            per_input_gaps ? config.input_gaps[next_input] : config.input_gap;
      }
    }
  };

  sim::EventQueue<EventPayload> events;
  for (const NodeIndex u : topology.start_order) {
    events.push(0.0, kPriorityFireStart, {EventPayload::Kind::kFireStart, u});
  }

  std::vector<Item> lane_inputs;
  std::vector<Item> outputs;
  std::uint64_t processed = 0;
  while (!events.empty() && processed < config.max_events) {
    const auto event = events.pop();
    ++processed;
    const Cycles now = event.time;
    materialize_arrivals(now);
    const NodeIndex u = event.payload.node;
    const TopologyNode& node_topology = topology.nodes[u];

    if (event.payload.kind == EventPayload::Kind::kFireEnd) {
      const std::vector<std::size_t>& outs = node_topology.out_queues;
      if (outs.empty()) {
        std::vector<Lane>& bundle = in_flight[u][0];
        for (Lane& lane : bundle) {
          ++metrics.base.sink_outputs;
          const Cycles latency = now - root_arrival[lane.second];
          metrics.base.record_latency(latency);
          if (config.deadline > 0.0 &&
              latency > config.deadline * (1.0 + 1e-12) &&
              !root_missed[lane.second]) {
            root_missed[lane.second] = true;
            ++metrics.base.inputs_missed;
          }
          metrics.base.makespan = std::max(metrics.base.makespan, now);
          if (metrics.results.size() < config.max_collected_results) {
            metrics.results.push_back(std::move(lane.first));
          }
        }
        live_items -= bundle.size();
        bundle.clear();
      } else {
        for (std::size_t s = 0; s < outs.size(); ++s) {
          std::vector<Lane>& bundle = in_flight[u][s];
          std::deque<Lane>& queue = queues[outs[s]];
          for (Lane& lane : bundle) queue.push_back(std::move(lane));
          sim::NodeMetrics& target = metrics.base.nodes[reader[outs[s]]];
          target.max_queue_length =
              std::max<std::uint64_t>(target.max_queue_length, queue.size());
          bundle.clear();
        }
      }
      continue;
    }

    // FireStart
    sim::NodeMetrics& node = metrics.base.nodes[u];
    const std::vector<std::size_t>& ins = node_topology.in_queues;
    std::size_t matched = queues[ins[0]].size();
    for (const std::size_t q : ins) matched = std::min(matched, queues[q].size());
    const std::uint32_t consumed =
        static_cast<std::uint32_t>(std::min<std::size_t>(matched, v));

    if (consumed > 0 || config.charge_empty_firings) {
      ++node.firings;
      if (consumed == 0) ++node.empty_firings;
      node.active_time += node_topology.service_time;
    }

    if (consumed > 0) {
      std::vector<std::vector<Lane>>& bundles = in_flight[u];
      std::uint64_t produced = 0;
      if (node_topology.role == NodeRole::kSync) {
        for (std::size_t j = 0; j < ins.size(); ++j) {
          std::deque<Lane>& queue = queues[ins[j]];
          for (std::uint32_t k = 0; k < consumed; ++k) {
            bundles[j].push_back(std::move(queue.front()));
            queue.pop_front();
          }
          produced += consumed;
        }
      } else {
        const bool tee = node_topology.role == NodeRole::kTee;
        try {
          for (std::uint32_t k = 0; k < consumed; ++k) {
            const RootId root = queues[ins[0]].front().second;
            lane_inputs.clear();
            for (const std::size_t q : ins) {
              lane_inputs.push_back(std::move(queues[q].front().first));
              queues[q].pop_front();
            }
            outputs.clear();
            stages[u](std::move(lane_inputs), outputs);
            const std::size_t slots = tee ? bundles.size() : 1;
            for (std::size_t s = 0; s < slots; ++s) {
              for (Item& out : outputs) {
                bundles[s].emplace_back(
                    s + 1 < slots ? Item(out) : std::move(out), root);
              }
              produced += outputs.size();
            }
          }
        } catch (const std::exception& e) {
          return R::failure("stage_exception", "stage '" + node_topology.name +
                                                   "' threw: " + e.what());
        } catch (...) {
          return R::failure("stage_exception",
                            "stage '" + node_topology.name + "' threw");
        }
      }
      const std::uint64_t consumed_total =
          static_cast<std::uint64_t>(consumed) * ins.size();
      node.items_consumed += consumed_total;
      node.items_produced += produced;
      live_items += produced;
      live_items -= consumed_total;
      events.push(now + node_topology.service_time, kPriorityFireEnd,
                  {EventPayload::Kind::kFireEnd, u});
    }
    if (!(arrivals_done && live_items == 0)) {
      events.push(now + config.firing_intervals[u], kPriorityFireStart,
                  {EventPayload::Kind::kFireStart, u});
    }
  }
  if (processed >= config.max_events) {
    return R::failure("event_budget",
                      "event budget exhausted (unstable schedule?)");
  }

  metrics.base.events_processed = processed;
  metrics.base.inputs_on_time =
      metrics.base.inputs_arrived - metrics.base.inputs_missed;
  if (metrics.base.makespan <= 0.0 && metrics.base.inputs_arrived > 0) {
    // No sink output ever left (everything filtered): fall back to the
    // arrival clock, exactly as the vector engine does.
    metrics.base.makespan =
        per_input_gaps
            ? next_arrival
            : config.input_gap *
                  static_cast<double>(metrics.base.inputs_arrived);
  }
  return metrics;
}

}  // namespace detail

ReferenceExecutor::ReferenceExecutor(sdf::PipelineSpec spec,
                                     std::vector<StageFn> stages)
    : pipeline_(std::move(spec)), stages_(std::move(stages)) {
  RIPPLE_REQUIRE(stages_.size() == pipeline_.size(),
                 "one stage function per pipeline node");
  for (const StageFn& stage : stages_) {
    RIPPLE_REQUIRE(static_cast<bool>(stage), "stage functions must be callable");
  }
}

util::Result<ExecutionMetrics> ReferenceExecutor::run(
    std::vector<Item> inputs, const ExecutorConfig& config) const {
  std::vector<detail::ItemStageFn> stages;
  stages.reserve(stages_.size());
  for (const StageFn& stage : stages_) {
    stages.push_back([&stage](std::vector<Item>&& lane_inputs,
                              std::vector<Item>& outputs) {
      stage(std::move(lane_inputs[0]), outputs);
    });
  }
  return detail::run_item_oracle(sim::chain_topology(pipeline_, "service"),
                                 stages, inputs, config);
}

}  // namespace ripple::runtime
