// Seed per-item engine, kept as the golden oracle and benchmark baseline
// for the vector-wide PipelineExecutor (see reference_executor.hpp).
#include "runtime/reference_executor.hpp"

#include <algorithm>
#include <deque>

#include "sim/event_queue.hpp"
#include "util/assert.hpp"

#if RIPPLE_OBS
#include "obs/obs.hpp"
#endif

namespace ripple::runtime {

namespace {

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

struct QueuedItem {
  RootId root;
  Item payload;
};

}  // namespace

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
  using R = util::Result<ExecutionMetrics>;
  const std::size_t n = pipeline_.size();
  if (config.firing_intervals.size() != n) {
    return R::failure("bad_config", "one firing interval per node required");
  }
  for (NodeIndex i = 0; i < n; ++i) {
    if (config.firing_intervals[i] < pipeline_.service_time(i) - 1e-9) {
      return R::failure("bad_config",
                        "firing interval below service time at node " +
                            std::to_string(i));
    }
  }
  if (inputs.empty()) {
    return R::failure("bad_config", "need at least one input");
  }
  const bool per_input_gaps = !config.input_gaps.empty();
  if (per_input_gaps) {
    if (config.input_gaps.size() != inputs.size()) {
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
  // Gap before arrival k (the first is measured from t = 0).
  const auto gap_before = [&](std::size_t k) {
    return per_input_gaps ? config.input_gaps[k] : config.input_gap;
  };

  const std::uint32_t v = pipeline_.simd_width();

  ExecutionMetrics metrics;
  metrics.base.nodes.resize(n);
  metrics.base.vector_width = v;
  metrics.base.sharing_actors = n;
  metrics.base.arm_latency_histogram(config.deadline);

  std::vector<std::deque<QueuedItem>> queues(n);
  std::vector<std::vector<QueuedItem>> in_flight(n);
  std::vector<Cycles> root_arrival(inputs.size(), 0.0);
  std::vector<bool> root_missed(inputs.size(), false);

  std::uint64_t live_items = 0;
  std::size_t next_input = 0;
  bool arrivals_done = false;
  Cycles last_arrival = 0.0;

  sim::EventQueue<EventPayload> events;
  events.push(gap_before(0), kPriorityArrival,
              {EventPayload::Kind::kArrival, 0});
  for (NodeIndex i = 0; i < n; ++i) {
    events.push(0.0, kPriorityFireStart, {EventPayload::Kind::kFireStart, i});
  }

#if RIPPLE_OBS
  // Per-stage service spans on the sim timeline, mirroring enforced_sim.
  obs::TraceWriter trace = obs::TraceWriter::for_current_thread();
  if (trace.active()) {
    for (NodeIndex i = 0; i < n; ++i) {
      obs::TraceSession::global().set_track_name(
          obs::Domain::kSim, static_cast<std::uint32_t>(i),
          pipeline_.node(i).name);
    }
  }
#endif

  std::vector<Item> stage_outputs;  // reused scratch for stage calls
  std::uint64_t processed = 0;
  while (!events.empty() && processed < config.max_events) {
    const auto event = events.pop();
    ++processed;
    const Cycles now = event.time;

    switch (event.payload.kind) {
      case EventPayload::Kind::kArrival: {
        const RootId root = static_cast<RootId>(next_input);
        root_arrival[root] = now;
        last_arrival = now;
        ++metrics.base.inputs_arrived;
        queues[0].push_back(QueuedItem{root, std::move(inputs[next_input])});
        ++live_items;
        ++next_input;
        metrics.base.nodes[0].max_queue_length =
            std::max<std::uint64_t>(metrics.base.nodes[0].max_queue_length,
                                    queues[0].size());
        if (next_input < inputs.size()) {
          events.push(now + gap_before(next_input), kPriorityArrival,
                      {EventPayload::Kind::kArrival, 0});
        } else {
          arrivals_done = true;
        }
        break;
      }

      case EventPayload::Kind::kFireStart: {
        const NodeIndex i = event.payload.node;
        sim::NodeMetrics& node = metrics.base.nodes[i];
        auto& queue = queues[i];
        const std::uint32_t consumed =
            static_cast<std::uint32_t>(std::min<std::uint64_t>(queue.size(), v));
#if RIPPLE_OBS
        if (trace.active()) {
          trace.counter(obs::Domain::kSim, static_cast<std::uint32_t>(i),
                        "queue_depth", now,
                        static_cast<double>(queue.size()));
          if (consumed > 0) {
            trace.begin(obs::Domain::kSim, static_cast<std::uint32_t>(i),
                        "service", now);
          } else if (config.charge_empty_firings) {
            trace.instant(obs::Domain::kSim, static_cast<std::uint32_t>(i),
                          "empty_firing", now, pipeline_.service_time(i));
          }
        }
#endif

        if (consumed > 0 || config.charge_empty_firings) {
          ++node.firings;
          if (consumed == 0) ++node.empty_firings;
          node.active_time += pipeline_.service_time(i);
        }

        if (consumed > 0) {
          node.items_consumed += consumed;
          auto& bundle = in_flight[i];
          for (std::uint32_t k = 0; k < consumed; ++k) {
            QueuedItem item = std::move(queue.front());
            queue.pop_front();
            stage_outputs.clear();
            stages_[i](std::move(item.payload), stage_outputs);
            node.items_produced += stage_outputs.size();
            for (Item& output : stage_outputs) {
              bundle.push_back(QueuedItem{item.root, std::move(output)});
            }
            live_items += stage_outputs.size();
          }
          live_items -= consumed;
          events.push(now + pipeline_.service_time(i), kPriorityFireEnd,
                      {EventPayload::Kind::kFireEnd, i});
        }

        if (!(arrivals_done && live_items == 0)) {
          events.push(now + config.firing_intervals[i], kPriorityFireStart,
                      {EventPayload::Kind::kFireStart, i});
        }
        break;
      }

      case EventPayload::Kind::kFireEnd: {
        const NodeIndex i = event.payload.node;
        auto& bundle = in_flight[i];
        const bool is_sink = (i + 1 == n);
        if (is_sink) {
          for (QueuedItem& item : bundle) {
            ++metrics.base.sink_outputs;
            const Cycles latency = now - root_arrival[item.root];
            metrics.base.record_latency(latency);
            if (config.deadline > 0.0 &&
                latency > config.deadline * (1.0 + 1e-12) &&
                !root_missed[item.root]) {
              root_missed[item.root] = true;
              ++metrics.base.inputs_missed;
#if RIPPLE_OBS
              if (trace.active()) {
                trace.instant(obs::Domain::kSim,
                              static_cast<std::uint32_t>(i), "deadline_miss",
                              now, config.deadline - latency);
              }
#endif
            }
            metrics.base.makespan = std::max(metrics.base.makespan, now);
            if (metrics.results.size() < config.max_collected_results) {
              metrics.results.push_back(std::move(item.payload));
            }
          }
          live_items -= bundle.size();
        } else {
          auto& next_queue = queues[i + 1];
          for (QueuedItem& item : bundle) next_queue.push_back(std::move(item));
          metrics.base.nodes[i + 1].max_queue_length =
              std::max<std::uint64_t>(metrics.base.nodes[i + 1].max_queue_length,
                                      next_queue.size());
        }
        bundle.clear();
#if RIPPLE_OBS
        if (trace.active()) {
          trace.end(obs::Domain::kSim, static_cast<std::uint32_t>(i),
                    "service", now);
        }
#endif
        break;
      }
    }
  }
  if (processed >= config.max_events) {
    return R::failure("event_budget",
                      "event budget exhausted (unstable schedule?)");
  }

  metrics.base.inputs_on_time =
      metrics.base.inputs_arrived - metrics.base.inputs_missed;
  if (metrics.base.makespan <= 0.0 && metrics.base.inputs_arrived > 0) {
    // No sink output ever left (everything filtered): fall back to the
    // arrival clock, exactly as PipelineExecutor does.
    metrics.base.makespan =
        per_input_gaps ? last_arrival
                       : config.input_gap *
                             static_cast<double>(metrics.base.inputs_arrived);
  }
  return metrics;
}

}  // namespace ripple::runtime
