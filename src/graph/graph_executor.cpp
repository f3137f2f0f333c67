#include "graph/graph_executor.hpp"

#include <algorithm>
#include <deque>
#include <exception>
#include <limits>
#include <optional>
#include <utility>

#include "runtime/executor_internal.hpp"
#include "runtime/soa_queue.hpp"
#include "sim/event_queue.hpp"
#include "util/assert.hpp"

#if RIPPLE_OBS
#include "obs/obs.hpp"
#endif

namespace ripple::graph {

using runtime::BatchEmitter;
using runtime::ExecutionMetrics;
using runtime::RootId;
using runtime::SoaQueue;
using runtime::detail::EventPayload;
using runtime::detail::kPriorityFireEnd;
using runtime::detail::kPriorityFireStart;

namespace {

/// Chain order of a linear graph: node indices along the unique path.
std::vector<NodeIndex> chain_order_of(const GraphSpec& graph) {
  std::vector<NodeIndex> order;
  order.reserve(graph.size());
  NodeIndex current = graph.source();
  for (std::size_t step = 0; step < graph.size(); ++step) {
    order.push_back(current);
    if (graph.out_edges(current).empty()) break;
    current = graph.edge(graph.out_edges(current)[0]).to;
  }
  return order;
}

/// Scatter chain-ordered node metrics back to graph node indices.
void scatter_node_metrics(const std::vector<NodeIndex>& chain_order,
                          sim::TrialMetrics& metrics) {
  std::vector<sim::NodeMetrics> by_graph_index(metrics.nodes.size());
  for (std::size_t p = 0; p < chain_order.size(); ++p) {
    by_graph_index[chain_order[p]] = metrics.nodes[p];
  }
  metrics.nodes = std::move(by_graph_index);
}

#if RIPPLE_OBS
const char* fire_span_name(NodeKind kind) {
  switch (kind) {
    case NodeKind::kSiso:
      return "graph.fire";
    case NodeKind::kSimoTee:
      return "graph.tee";
    case NodeKind::kMisoElementwise:
      return "graph.merge";
    case NodeKind::kMimoSynchronizer:
      return "graph.sync";
  }
  return "graph.fire";
}
#endif

/// Graph-flavored twin of PipelineExecutor's run-config validation (messages
/// name nodes, not chain positions, so linear delegation and the DAG engine
/// report identically).
std::optional<util::Result<ExecutionMetrics>> validate_config(
    const GraphSpec& graph, std::size_t input_count,
    const GraphExecutorConfig& config) {
  using R = util::Result<ExecutionMetrics>;
  if (config.firing_intervals.size() != graph.size()) {
    return R::failure("bad_config", "one firing interval per node required");
  }
  for (NodeIndex u = 0; u < graph.size(); ++u) {
    if (config.firing_intervals[u] < graph.service_time(u) - 1e-9) {
      return R::failure("bad_config",
                        "firing interval below service time at node '" +
                            graph.node(u).name + "'");
    }
  }
  if (input_count == 0) {
    return R::failure("bad_config", "need at least one input");
  }
  if (!config.input_gaps.empty()) {
    if (config.input_gaps.size() != input_count) {
      return R::failure("bad_config", "one arrival gap per input required");
    }
    for (Cycles gap : config.input_gaps) {
      if (!(gap > 0.0)) {
        return R::failure("bad_config", "arrival gaps must be positive");
      }
    }
  } else if (!(config.input_gap > 0.0)) {
    return R::failure("bad_config", "input gap must be positive");
  }
  return std::nullopt;
}

}  // namespace

GraphExecutor::GraphExecutor(GraphSpec graph, std::vector<GraphStageFn> stages)
    : graph_(std::move(graph)), stages_(std::move(stages)) {
  RIPPLE_REQUIRE(stages_.size() == graph_.size(),
                 "one stage function per graph node");
  for (NodeIndex u = 0; u < graph_.size(); ++u) {
    if (graph_.node(u).kind == NodeKind::kMimoSynchronizer) {
      RIPPLE_REQUIRE(
          !stages_[u],
          "synchronizer nodes forward without a stage (register nullptr)");
    } else {
      RIPPLE_REQUIRE(static_cast<bool>(stages_[u]),
                     "stage function for node '" + graph_.node(u).name +
                         "' must be callable");
    }
  }
  if (graph_.is_linear()) {
    chain_order_ = chain_order_of(graph_);
    auto lowered = graph_.lower_to_pipeline();
    RIPPLE_REQUIRE(lowered.ok(), "linear graph must lower to a pipeline");
    std::vector<runtime::StageFn> chain_stages;
    chain_stages.reserve(graph_.size());
    for (NodeIndex u : chain_order_) {
      chain_stages.push_back(
          [fn = stages_[u]](Item&& input, std::vector<Item>& outputs) {
            std::vector<Item> lane_inputs;
            lane_inputs.reserve(1);
            lane_inputs.push_back(std::move(input));
            fn(std::move(lane_inputs), outputs);
          });
    }
    linear_ = std::make_unique<runtime::PipelineExecutor>(
        std::move(lowered).take(), std::move(chain_stages));
  }
}

util::Result<ExecutionMetrics> GraphExecutor::run(
    std::vector<Item> inputs, const GraphExecutorConfig& config) const {
  if (auto invalid = validate_config(graph_, inputs.size(), config)) {
    return *std::move(invalid);
  }
  if (linear_ != nullptr) {
    // Chain delegation: bit-identical to the existing vector engine.
    const std::size_t n = graph_.size();
    runtime::ExecutorConfig chain;
    chain.firing_intervals.resize(n);
    for (std::size_t p = 0; p < n; ++p) {
      chain.firing_intervals[p] = config.firing_intervals[chain_order_[p]];
    }
    chain.input_gap = config.input_gap;
    chain.input_gaps = config.input_gaps;
    chain.deadline = config.deadline;
    chain.charge_empty_firings = config.charge_empty_firings;
    chain.max_collected_results = config.max_collected_results;
    chain.max_events = config.max_events;
    auto result = linear_->run(std::move(inputs), chain);
    if (!result.ok()) return result;
    ExecutionMetrics metrics = std::move(result).take();
    scatter_node_metrics(chain_order_, metrics.base);
    return metrics;
  }
  return execute_dag(inputs, config);
}

util::Result<ExecutionMetrics> GraphExecutor::execute_dag(
    std::vector<Item>& inputs, const GraphExecutorConfig& config) const {
  using R = util::Result<ExecutionMetrics>;
  const std::size_t n = graph_.size();
  const std::uint32_t v = graph_.simd_width();
  const std::size_t input_count = inputs.size();
  const bool per_input_gaps = !config.input_gaps.empty();

  ExecutionMetrics metrics;
  metrics.base.nodes.resize(n);
  metrics.base.vector_width = v;
  metrics.base.sharing_actors = n;
  metrics.base.arm_latency_histogram(config.deadline);

  std::vector<Cycles> service_time(n);
  for (NodeIndex u = 0; u < n; ++u) service_time[u] = graph_.service_time(u);

  // One item queue per edge, plus the source's arrival queue.
  const std::size_t arrival_queue = graph_.edge_count();
  std::vector<SoaQueue> queues(graph_.edge_count() + 1);
  for (SoaQueue& queue : queues) {
    queue.configure(0, /*carries_items=*/true);
    queue.reserve(2 * v);
  }
  std::vector<std::vector<std::size_t>> in_queues(n);
  for (NodeIndex u = 0; u < n; ++u) {
    if (u == graph_.source()) {
      in_queues[u] = {arrival_queue};
    } else {
      for (EdgeIndex e : graph_.in_edges(u)) in_queues[u].push_back(e);
    }
  }

  // In-flight firing outputs, one emitter + root vector per out-edge slot
  // (sinks keep their results in slot 0 until the fire-end).
  std::vector<std::vector<BatchEmitter>> in_flight(n);
  std::vector<std::vector<std::vector<RootId>>> in_flight_roots(n);
  for (NodeIndex u = 0; u < n; ++u) {
    const std::size_t slots =
        std::max<std::size_t>(1, graph_.out_edges(u).size());
    in_flight[u].resize(slots);
    in_flight_roots[u].resize(slots);
    for (auto& roots : in_flight_roots[u]) roots.reserve(v);
  }

  std::vector<Cycles> root_arrival(input_count, 0.0);
  std::vector<bool> root_missed(input_count, false);

  std::uint64_t live_items = 0;
  std::size_t next_input = 0;
  Cycles next_arrival = per_input_gaps ? config.input_gaps[0] : config.input_gap;
  bool arrivals_done = false;

  const auto materialize_arrivals = [&](Cycles now) {
    if (arrivals_done || next_arrival > now) return;
    while (!arrivals_done && next_arrival <= now) {
      const RootId root = static_cast<RootId>(next_input);
      root_arrival[root] = next_arrival;
      ++metrics.base.inputs_arrived;
      queues[arrival_queue].push_item(std::move(inputs[next_input]), root);
      ++live_items;
      ++next_input;
      if (next_input == input_count) {
        arrivals_done = true;
      } else {
        next_arrival +=
            per_input_gaps ? config.input_gaps[next_input] : config.input_gap;
      }
    }
    metrics.base.nodes[graph_.source()].max_queue_length =
        std::max<std::uint64_t>(
            metrics.base.nodes[graph_.source()].max_queue_length,
            queues[arrival_queue].size());
  };

  sim::EventQueue<EventPayload> events;
  for (NodeIndex u = 0; u < n; ++u) {
    events.push(0.0, kPriorityFireStart, {EventPayload::Kind::kFireStart, u});
  }

#if RIPPLE_OBS
  obs::TraceWriter trace = obs::TraceWriter::for_current_thread();
  if (trace.active()) {
    for (NodeIndex u = 0; u < n; ++u) {
      obs::TraceSession::global().set_track_name(
          obs::Domain::kSim, static_cast<std::uint32_t>(u), graph_.node(u).name);
    }
    for (EdgeIndex e = 0; e < graph_.edge_count(); ++e) {
      obs::TraceSession::global().set_track_name(
          obs::Domain::kSim, static_cast<std::uint32_t>(n + e),
          "edge " + graph_.node(graph_.edge(e).from).name + "->" +
              graph_.node(graph_.edge(e).to).name);
    }
  }
#endif

  std::vector<std::vector<Item>> windows;  // one dense window per in-queue
  std::vector<Item> scratch;               // one lane's stage outputs
  std::uint64_t processed = 0;
  while (!events.empty() && processed < config.max_events) {
    const auto event = events.pop();
    ++processed;
    const Cycles now = event.time;
    materialize_arrivals(now);

    if (event.payload.kind == EventPayload::Kind::kFireEnd) {
      const NodeIndex u = event.payload.node;
      const std::vector<EdgeIndex>& out = graph_.out_edges(u);
      if (out.empty()) {
        BatchEmitter& emitter = in_flight[u][0];
        const std::vector<RootId>& lane_roots = in_flight_roots[u][0];
        const std::uint32_t* counts = emitter.counts();
        std::size_t out_idx = 0;
        for (std::size_t lane = 0; lane < emitter.lanes(); ++lane) {
          const RootId root = lane_roots[lane];
          for (std::uint32_t c = 0; c < counts[lane]; ++c, ++out_idx) {
            ++metrics.base.sink_outputs;
            const Cycles latency = now - root_arrival[root];
            metrics.base.record_latency(latency);
            if (config.deadline > 0.0 &&
                latency > config.deadline * (1.0 + 1e-12) &&
                !root_missed[root]) {
              root_missed[root] = true;
              ++metrics.base.inputs_missed;
#if RIPPLE_OBS
              if (trace.active()) {
                trace.instant(obs::Domain::kSim, static_cast<std::uint32_t>(u),
                              "deadline_miss", now, config.deadline - latency);
              }
#endif
            }
            metrics.base.makespan = std::max(metrics.base.makespan, now);
            if (metrics.results.size() < config.max_collected_results) {
              metrics.results.push_back(std::move(emitter.items()[out_idx]));
            }
          }
        }
        live_items -= emitter.total();
        emitter.reset(0, 0, /*carries_items=*/true);
      } else {
        for (std::size_t s = 0; s < out.size(); ++s) {
          BatchEmitter& emitter = in_flight[u][s];
          SoaQueue& queue = queues[out[s]];
          queue.append(emitter, in_flight_roots[u][s].data());
          const NodeIndex target = graph_.edge(out[s]).to;
          metrics.base.nodes[target].max_queue_length = std::max<std::uint64_t>(
              metrics.base.nodes[target].max_queue_length, queue.size());
          emitter.reset(0, 0, /*carries_items=*/true);
        }
      }
#if RIPPLE_OBS
      if (trace.active()) {
        trace.end(obs::Domain::kSim, static_cast<std::uint32_t>(u),
                  fire_span_name(graph_.node(u).kind), now);
      }
#endif
      continue;
    }

    // ------------------------------------------------------------ FireStart
    const NodeIndex u = event.payload.node;
    sim::NodeMetrics& node = metrics.base.nodes[u];
    const std::vector<std::size_t>& node_inputs = in_queues[u];
    std::uint64_t deepest = 0;
    std::uint64_t matched = std::numeric_limits<std::uint64_t>::max();
    for (const std::size_t q : node_inputs) {
      deepest = std::max<std::uint64_t>(deepest, queues[q].size());
      matched = std::min<std::uint64_t>(matched, queues[q].size());
    }
    const NodeKind kind = graph_.node(u).kind;
    const bool elementwise = kind == NodeKind::kMisoElementwise ||
                             kind == NodeKind::kMimoSynchronizer;
    const std::uint32_t consumed = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(elementwise ? matched : deepest, v));

#if RIPPLE_OBS
    if (trace.active()) {
      for (const std::size_t q : node_inputs) {
        const std::uint32_t track = q == arrival_queue
                                        ? static_cast<std::uint32_t>(u)
                                        : static_cast<std::uint32_t>(n + q);
        trace.counter(obs::Domain::kSim, track, "graph.queue_depth", now,
                      static_cast<double>(queues[q].size()));
      }
      if (consumed > 0) {
        trace.begin(obs::Domain::kSim, static_cast<std::uint32_t>(u),
                    fire_span_name(kind), now);
      } else if (config.charge_empty_firings) {
        trace.instant(obs::Domain::kSim, static_cast<std::uint32_t>(u),
                      "empty_firing", now, service_time[u]);
      }
    }
#endif

    if (consumed > 0 || config.charge_empty_firings) {
      ++node.firings;
      if (consumed == 0) ++node.empty_firings;
      node.active_time += service_time[u];
    }

    if (consumed > 0) {
      std::vector<BatchEmitter>& emitters = in_flight[u];
      if (kind == NodeKind::kMimoSynchronizer) {
        // Pure forwarding: stream j's items move straight into out-slot j.
        for (std::size_t j = 0; j < node_inputs.size(); ++j) {
          SoaQueue& queue = queues[node_inputs[j]];
          BatchEmitter& emitter = emitters[j];
          emitter.reset(consumed, 0, /*carries_items=*/true);
          std::vector<RootId>& roots = in_flight_roots[u][j];
          roots.resize(consumed);
          for (std::uint32_t k = 0; k < consumed; ++k) {
            emitter.emit_item(k, std::move(queue.item_at(k)));
            roots[k] = queue.root_at(k);
          }
          queue.discard_front(consumed);
        }
      } else {
        // Window the consumed lanes of every in-queue. Roots follow the
        // first in-queue (merge tuples re-join tee'd copies of the same
        // root); tee replicates them to every out-slot.
        const std::size_t fan_in = node_inputs.size();
        windows.resize(fan_in);
        for (std::size_t j = 0; j < fan_in; ++j) {
          SoaQueue& queue = queues[node_inputs[j]];
          std::vector<Item>& window = windows[j];
          window.resize(consumed);
          for (std::uint32_t k = 0; k < consumed; ++k) {
            window[k] = std::move(queue.item_at(k));
          }
        }
        const std::size_t slots = emitters.size();
        std::vector<RootId>& roots0 = in_flight_roots[u][0];
        roots0.resize(consumed);
        for (std::uint32_t k = 0; k < consumed; ++k) {
          roots0[k] = queues[node_inputs[0]].root_at(k);
        }
        for (std::size_t s = 0; s < slots; ++s) {
          emitters[s].reset(consumed, 0, /*carries_items=*/true);
          if (s > 0) in_flight_roots[u][s] = roots0;
        }
        for (const std::size_t q : node_inputs) {
          queues[q].discard_front(consumed);
        }

        const GraphStageFn& fn = stages_[u];
        try {
          for (std::uint32_t k = 0; k < consumed; ++k) {
            std::vector<Item> lane_inputs;
            lane_inputs.reserve(fan_in);
            for (std::size_t j = 0; j < fan_in; ++j) {
              lane_inputs.push_back(std::move(windows[j][k]));
            }
            scratch.clear();
            fn(std::move(lane_inputs), scratch);
            if (kind == NodeKind::kSimoTee) {
              for (std::size_t s = 0; s < slots; ++s) {
                for (Item& out : scratch) {
                  emitters[s].emit_item(
                      k, s + 1 < slots ? Item(out) : std::move(out));
                }
              }
            } else {
              for (Item& out : scratch) {
                emitters[0].emit_item(k, std::move(out));
              }
            }
          }
        } catch (const std::exception& e) {
          return R::failure("stage_exception", "stage '" + graph_.node(u).name +
                                                   "' threw: " + e.what());
        } catch (...) {
          return R::failure("stage_exception",
                            "stage '" + graph_.node(u).name + "' threw");
        }
      }

      const std::uint64_t consumed_total =
          static_cast<std::uint64_t>(consumed) *
          (elementwise ? node_inputs.size() : 1);
      std::uint64_t produced = 0;
      for (const BatchEmitter& emitter : emitters) produced += emitter.total();
      node.items_consumed += consumed_total;
      node.items_produced += produced;
      live_items += produced;
      live_items -= consumed_total;
      events.push(now + service_time[u], kPriorityFireEnd,
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

  metrics.base.inputs_on_time =
      metrics.base.inputs_arrived - metrics.base.inputs_missed;
  if (metrics.base.makespan <= 0.0 && metrics.base.inputs_arrived > 0) {
    metrics.base.makespan =
        per_input_gaps
            ? next_arrival
            : config.input_gap *
                  static_cast<double>(metrics.base.inputs_arrived);
  }
  return metrics;
}

util::Result<ExecutionMetrics> GraphExecutor::run_reference(
    std::vector<Item> inputs, const GraphExecutorConfig& config) const {
  using R = util::Result<ExecutionMetrics>;
  if (auto invalid = validate_config(graph_, inputs.size(), config)) {
    return *std::move(invalid);
  }
  const std::size_t n = graph_.size();
  const std::uint32_t v = graph_.simd_width();
  const std::size_t input_count = inputs.size();
  const bool per_input_gaps = !config.input_gaps.empty();

  ExecutionMetrics metrics;
  metrics.base.nodes.resize(n);
  metrics.base.vector_width = v;
  metrics.base.sharing_actors = n;
  metrics.base.arm_latency_histogram(config.deadline);

  std::vector<Cycles> service_time(n);
  for (NodeIndex u = 0; u < n; ++u) service_time[u] = graph_.service_time(u);

  using Lane = std::pair<Item, RootId>;
  const std::size_t arrival_queue = graph_.edge_count();
  std::vector<std::deque<Lane>> queues(graph_.edge_count() + 1);
  std::vector<std::vector<std::size_t>> in_queues(n);
  for (NodeIndex u = 0; u < n; ++u) {
    if (u == graph_.source()) {
      in_queues[u] = {arrival_queue};
    } else {
      for (EdgeIndex e : graph_.in_edges(u)) in_queues[u].push_back(e);
    }
  }
  std::vector<std::vector<std::vector<Lane>>> in_flight(n);
  for (NodeIndex u = 0; u < n; ++u) {
    in_flight[u].resize(std::max<std::size_t>(1, graph_.out_edges(u).size()));
  }

  std::vector<Cycles> root_arrival(input_count, 0.0);
  std::vector<bool> root_missed(input_count, false);

  std::uint64_t live_items = 0;
  std::size_t next_input = 0;
  Cycles next_arrival = per_input_gaps ? config.input_gaps[0] : config.input_gap;
  bool arrivals_done = false;

  const auto materialize_arrivals = [&](Cycles now) {
    if (arrivals_done || next_arrival > now) return;
    while (!arrivals_done && next_arrival <= now) {
      const RootId root = static_cast<RootId>(next_input);
      root_arrival[root] = next_arrival;
      ++metrics.base.inputs_arrived;
      queues[arrival_queue].emplace_back(std::move(inputs[next_input]), root);
      ++live_items;
      ++next_input;
      if (next_input == input_count) {
        arrivals_done = true;
      } else {
        next_arrival +=
            per_input_gaps ? config.input_gaps[next_input] : config.input_gap;
      }
    }
    metrics.base.nodes[graph_.source()].max_queue_length =
        std::max<std::uint64_t>(
            metrics.base.nodes[graph_.source()].max_queue_length,
            queues[arrival_queue].size());
  };

  sim::EventQueue<EventPayload> events;
  if (linear_ != nullptr) {
    // Chain order so the event sequence numbers (and hence any same-time
    // FireStart ordering) match the delegated PipelineExecutor's exactly.
    for (NodeIndex u : chain_order_) {
      events.push(0.0, kPriorityFireStart, {EventPayload::Kind::kFireStart, u});
    }
  } else {
    for (NodeIndex u = 0; u < n; ++u) {
      events.push(0.0, kPriorityFireStart, {EventPayload::Kind::kFireStart, u});
    }
  }

  std::vector<Item> scratch;
  std::uint64_t processed = 0;
  while (!events.empty() && processed < config.max_events) {
    const auto event = events.pop();
    ++processed;
    const Cycles now = event.time;
    materialize_arrivals(now);

    if (event.payload.kind == EventPayload::Kind::kFireEnd) {
      const NodeIndex u = event.payload.node;
      const std::vector<EdgeIndex>& out = graph_.out_edges(u);
      if (out.empty()) {
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
        for (std::size_t s = 0; s < out.size(); ++s) {
          std::vector<Lane>& bundle = in_flight[u][s];
          std::deque<Lane>& queue = queues[out[s]];
          for (Lane& lane : bundle) queue.push_back(std::move(lane));
          const NodeIndex target = graph_.edge(out[s]).to;
          metrics.base.nodes[target].max_queue_length = std::max<std::uint64_t>(
              metrics.base.nodes[target].max_queue_length, queue.size());
          bundle.clear();
        }
      }
      continue;
    }

    // FireStart
    const NodeIndex u = event.payload.node;
    sim::NodeMetrics& node = metrics.base.nodes[u];
    const std::vector<std::size_t>& node_inputs = in_queues[u];
    std::uint64_t deepest = 0;
    std::uint64_t matched = std::numeric_limits<std::uint64_t>::max();
    for (const std::size_t q : node_inputs) {
      deepest = std::max<std::uint64_t>(deepest, queues[q].size());
      matched = std::min<std::uint64_t>(matched, queues[q].size());
    }
    const NodeKind kind = graph_.node(u).kind;
    const bool elementwise = kind == NodeKind::kMisoElementwise ||
                             kind == NodeKind::kMimoSynchronizer;
    const std::uint32_t consumed = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(elementwise ? matched : deepest, v));

    if (consumed > 0 || config.charge_empty_firings) {
      ++node.firings;
      if (consumed == 0) ++node.empty_firings;
      node.active_time += service_time[u];
    }

    if (consumed > 0) {
      std::uint64_t produced = 0;
      try {
        if (kind == NodeKind::kMimoSynchronizer) {
          for (std::size_t j = 0; j < node_inputs.size(); ++j) {
            std::deque<Lane>& queue = queues[node_inputs[j]];
            std::vector<Lane>& bundle = in_flight[u][j];
            for (std::uint32_t k = 0; k < consumed; ++k) {
              bundle.push_back(std::move(queue[k]));
            }
            queue.erase(queue.begin(), queue.begin() + consumed);
            produced += consumed;
          }
        } else {
          const GraphStageFn& fn = stages_[u];
          for (std::uint32_t k = 0; k < consumed; ++k) {
            std::vector<Item> lane_inputs;
            lane_inputs.reserve(node_inputs.size());
            for (const std::size_t q : node_inputs) {
              lane_inputs.push_back(std::move(queues[q][k].first));
            }
            const RootId root = queues[node_inputs[0]][k].second;
            scratch.clear();
            fn(std::move(lane_inputs), scratch);
            if (kind == NodeKind::kSimoTee) {
              const std::size_t slots = in_flight[u].size();
              for (std::size_t s = 0; s < slots; ++s) {
                for (Item& out : scratch) {
                  in_flight[u][s].emplace_back(
                      s + 1 < slots ? Item(out) : std::move(out), root);
                }
                produced += scratch.size();
              }
            } else {
              for (Item& out : scratch) {
                in_flight[u][0].emplace_back(std::move(out), root);
              }
              produced += scratch.size();
            }
          }
          for (const std::size_t q : node_inputs) {
            queues[q].erase(queues[q].begin(), queues[q].begin() + consumed);
          }
        }
      } catch (const std::exception& e) {
        return R::failure("stage_exception", "stage '" + graph_.node(u).name +
                                                 "' threw: " + e.what());
      } catch (...) {
        return R::failure("stage_exception",
                          "stage '" + graph_.node(u).name + "' threw");
      }
      const std::uint64_t consumed_total =
          static_cast<std::uint64_t>(consumed) *
          (elementwise ? node_inputs.size() : 1);
      node.items_consumed += consumed_total;
      node.items_produced += produced;
      live_items += produced;
      live_items -= consumed_total;
      events.push(now + service_time[u], kPriorityFireEnd,
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

  metrics.base.inputs_on_time =
      metrics.base.inputs_arrived - metrics.base.inputs_missed;
  if (metrics.base.makespan <= 0.0 && metrics.base.inputs_arrived > 0) {
    metrics.base.makespan =
        per_input_gaps
            ? next_arrival
            : config.input_gap *
                  static_cast<double>(metrics.base.inputs_arrived);
  }
  return metrics;
}

}  // namespace ripple::graph
