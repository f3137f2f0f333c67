#include "sched/quantum_sim.hpp"

#include <algorithm>
#include <cmath>

#include "dist/rng.hpp"
#include "sched/stride_scheduler.hpp"
#include "sim/event_queue.hpp"
#include "sim/lane_routing.hpp"
#include "util/assert.hpp"
#include "util/ring_buffer.hpp"

namespace ripple::sched {

namespace {

using sim::detail::RootId;

enum EventPriority : int {
  kPriorityArrival = 0,
  kPriorityTick = 1,
};

struct EventPayload {
  enum class Kind : std::uint8_t { kArrival, kTick };
  Kind kind;
  NodeIndex node = 0;
};

/// Per-node task state.
struct NodeTask {
  util::RingBuffer<RootId> queue;

  // Firing in progress (READY or RUNNING between quanta).
  bool firing_active = false;
  bool dispatched = false;         // got its first quantum
  Cycles remaining_work = 0.0;     // exclusive cycles left
  Cycles ready_time = 0.0;
  Cycles first_dispatch = 0.0;
  std::vector<RootId> outputs;     // delivered at completion: the first
  std::size_t output_count = 0;    //   output_count slots
  std::uint32_t consumed = 0;

  Cycles last_ready = 0.0;         // anchor for the cadence recursion
  bool tick_pending = false;       // a kTick event is in flight
};

}  // namespace

QuantumSimMetrics simulate_quantum_scheduled(
    const sdf::PipelineSpec& pipeline,
    const std::vector<Cycles>& firing_intervals,
    arrivals::ArrivalProcess& arrival_process, const QuantumSimConfig& config) {
  const std::size_t n = pipeline.size();
  RIPPLE_REQUIRE(firing_intervals.size() == n, "one firing interval per node");
  RIPPLE_REQUIRE(config.quantum > 0.0, "quantum must be positive");
  RIPPLE_REQUIRE(config.input_count > 0, "need at least one input");
  for (NodeIndex i = 0; i < n; ++i) {
    RIPPLE_REQUIRE(firing_intervals[i] >= pipeline.service_time(i) - 1e-9,
                   "firing interval below service time at node " +
                       std::to_string(i));
  }

  dist::Xoshiro256 rng(config.seed);
  const std::uint32_t v = pipeline.simd_width();
  const double inv_n = 1.0 / static_cast<double>(n);

  QuantumSimMetrics metrics;
  metrics.base.nodes.resize(n);
  metrics.base.vector_width = v;
  metrics.base.sharing_actors = n;
  metrics.base.arm_latency_histogram(config.deadline);
  metrics.service_span.resize(n);

  std::vector<NodeTask> tasks(n);
  for (NodeIndex i = 0; i + 1 < n; ++i) {
    tasks[i].outputs.resize(
        sim::detail::bundle_capacity(v, pipeline.node(i).gain->max_outputs()));
  }
  tasks[n - 1].outputs.resize(v);
  std::vector<dist::OutputCount> gain_draws(v);
  StrideScheduler scheduler = StrideScheduler::equal_shares(n);

  std::vector<Cycles> root_arrival;
  root_arrival.reserve(config.input_count);
  std::vector<bool> root_missed(config.input_count, false);

  std::uint64_t live_items = 0;
  bool arrivals_done = false;

  sim::EventQueue<EventPayload> events;
  events.push(arrival_process.next_interarrival(rng), kPriorityArrival,
              {EventPayload::Kind::kArrival, 0});
  for (NodeIndex i = 0; i < n; ++i) {
    tasks[i].last_ready = 0.0;
    tasks[i].tick_pending = true;
    events.push(0.0, kPriorityTick, {EventPayload::Kind::kTick, i});
  }

  Cycles now = 0.0;

  // True while there is (or may yet be) data in flight, so ticks keep firing.
  auto stream_live = [&] { return !(arrivals_done && live_items == 0); };

  auto complete_firing = [&](NodeIndex i) {
    NodeTask& task = tasks[i];
    const bool is_sink = (i + 1 == n);
    if (is_sink) {
      for (std::size_t k = 0; k < task.output_count; ++k) {
        const RootId root = task.outputs[k];
        ++metrics.base.sink_outputs;
        const Cycles latency = now - root_arrival[root];
        metrics.base.record_latency(latency);
        if (config.deadline > 0.0 &&
            latency > config.deadline * (1.0 + 1e-12) && !root_missed[root]) {
          root_missed[root] = true;
          ++metrics.base.inputs_missed;
        }
        metrics.base.makespan = std::max(metrics.base.makespan, now);
      }
      live_items -= task.output_count;
    } else {
      auto& next_queue = tasks[i + 1].queue;
      next_queue.append(task.outputs.data(), task.output_count);
      metrics.base.nodes[i + 1].max_queue_length =
          std::max<std::uint64_t>(metrics.base.nodes[i + 1].max_queue_length,
                                  next_queue.size());
    }
    task.output_count = 0;
    task.firing_active = false;
    task.dispatched = false;
    scheduler.set_runnable(i, false);

    // Cadence recursion: ready_{k+1} = max(ready_k + x_i, completion).
    if (stream_live() && !task.tick_pending) {
      task.last_ready = std::max(task.last_ready + firing_intervals[i], now);
      task.tick_pending = true;
      events.push(task.last_ready, kPriorityTick,
                  {EventPayload::Kind::kTick, i});
    }
  };

  auto start_firing_dispatch = [&](NodeIndex i) {
    // First quantum of this firing: consume the input vector and sample
    // outputs (delivered at completion).
    NodeTask& task = tasks[i];
    task.dispatched = true;
    task.first_dispatch = now;
    metrics.dispatch_delay.add(now - task.ready_time);
    sim::NodeMetrics& node = metrics.base.nodes[i];
    const std::uint32_t consumed =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(task.queue.size(), v));
    task.consumed = consumed;
    ++node.firings;
    if (consumed == 0) ++node.empty_firings;
    node.active_time += pipeline.service_time(i);  // paper accounting basis
    node.items_consumed += consumed;

    const bool is_sink = (i + 1 == n);
    if (is_sink) {
      sim::detail::copy_lanes(task.queue, consumed, task.outputs.data());
      task.output_count = consumed;
      task.queue.discard_front(consumed);
    } else if (consumed > 0) {
      // One batched virtual call per firing; identical RNG draw order.
      const dist::GainDistribution& gain = *pipeline.node(i).gain;
      gain.sample_n(rng, gain_draws.data(), consumed);
      const std::size_t produced = sim::detail::expand_lanes(
          task.queue, consumed, gain_draws.data(), gain.max_outputs(),
          task.outputs.data());
      task.output_count = produced;
      task.queue.discard_front(consumed);
      node.items_produced += produced;
      live_items += produced;
      live_items -= consumed;
    }
  };

  // Scheduling decisions happen only at quantum boundaries t = k * Q (the
  // coarseness under study: a timer-tick or kernel-slot dispatcher). A task
  // that finishes mid-slot releases its results at the true completion time,
  // but the processor is not re-dispatched until the next boundary.
  const Cycles quantum_length = config.quantum;
  auto next_boundary_after = [quantum_length](Cycles t) {
    const double slots = std::ceil(t / quantum_length - 1e-9);
    return std::max(slots, 0.0) * quantum_length;
  };

  std::uint64_t quanta = 0;
  while (quanta < config.max_quanta) {
    // Drain all events due at or before `now` (boundary processing).
    while (!events.empty() && events.top().time <= now + 1e-12) {
      const auto event = events.pop();
      switch (event.payload.kind) {
        case EventPayload::Kind::kArrival: {
          const RootId root = static_cast<RootId>(root_arrival.size());
          root_arrival.push_back(event.time);
          ++metrics.base.inputs_arrived;
          tasks[0].queue.push_back(root);
          ++live_items;
          metrics.base.nodes[0].max_queue_length =
              std::max<std::uint64_t>(metrics.base.nodes[0].max_queue_length,
                                      tasks[0].queue.size());
          if (root_arrival.size() < config.input_count) {
            events.push(event.time + arrival_process.next_interarrival(rng),
                        kPriorityArrival, {EventPayload::Kind::kArrival, 0});
          } else {
            arrivals_done = true;
          }
          break;
        }
        case EventPayload::Kind::kTick: {
          const NodeIndex i = event.payload.node;
          NodeTask& task = tasks[i];
          task.tick_pending = false;
          if (task.firing_active) break;  // overrun: completion re-anchors
          const bool has_work = !task.queue.empty();
          if (has_work || config.charge_empty_firings) {
            task.firing_active = true;
            task.dispatched = false;
            task.ready_time = event.time;
            task.remaining_work = pipeline.service_time(i) * inv_n;
            scheduler.set_runnable(i, true);
          }
          // Schedule the next cadence tick (unless the stream has drained).
          if (stream_live() && !task.firing_active) {
            task.last_ready += firing_intervals[i];
            task.tick_pending = true;
            events.push(task.last_ready, kPriorityTick,
                        {EventPayload::Kind::kTick, i});
          }
          break;
        }
      }
    }

    if (scheduler.runnable_count() == 0) {
      if (events.empty()) break;  // fully drained
      // Idle until the first boundary at or after the next event.
      now = next_boundary_after(std::max(now, events.top().time));
      continue;
    }

    // Execute one slot: the picked task runs for min(Q, remaining); if it
    // finishes early the rest of the slot is dead time (coarse dispatch).
    const TaskId picked = scheduler.pick_and_charge();
    NodeTask& task = tasks[picked];
    if (!task.dispatched) start_firing_dispatch(picked);
    const Cycles slice = std::min(quantum_length, task.remaining_work);
    task.remaining_work -= slice;
    const Cycles work_end = now + slice;
    metrics.busy_time += slice;
    ++quanta;
    if (task.remaining_work <= 1e-9) {
      // Completion effects (output delivery, latency stamps, next cadence
      // anchor) take effect at the true work end, inside the slot.
      const Cycles boundary = now + quantum_length;
      now = work_end;
      metrics.service_span[picked].add(now - task.first_dispatch);
      complete_firing(picked);
      now = boundary;
    } else {
      now += quantum_length;
    }
  }
  RIPPLE_REQUIRE(quanta < config.max_quanta,
                 "quantum budget exhausted (unstable schedule?)");

  metrics.quanta_executed = quanta;
  metrics.base.events_processed = quanta;
  metrics.base.inputs_on_time =
      metrics.base.inputs_arrived - metrics.base.inputs_missed;
  if (metrics.base.makespan <= 0.0 && !root_arrival.empty()) {
    metrics.base.makespan = root_arrival.back();
  }
  return metrics;
}

}  // namespace ripple::sched
