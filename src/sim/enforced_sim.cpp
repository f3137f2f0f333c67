#include "sim/enforced_sim.hpp"

#include <algorithm>
#include <string>

#include "dist/rng.hpp"
#include "sim/event_sources.hpp"
#include "util/assert.hpp"
#include "util/ring_buffer.hpp"

#if RIPPLE_OBS
#include "obs/obs.hpp"
#endif

namespace ripple::sim {

namespace {

/// Root-input identifier carried by every item so exits can be attributed.
using RootId = std::uint32_t;

/// Same-timestamp ordering: deliveries become visible before new arrivals,
/// and both before the firing that may consume them.
enum EventPriority : int {
  kPriorityFireEnd = 0,
  kPriorityArrival = 1,
  kPriorityFireStart = 2,
};

}  // namespace

std::vector<Cycles> aligned_phase_offsets(const sdf::PipelineSpec& pipeline) {
  return aligned_phase_offsets(chain_topology(pipeline, "fire"));
}

// The event structure is fixed and tiny — N periodic fire-start streams, one
// arrival stream, and at most one in-flight fire-end per node — so instead of
// a general heap the loop runs an IndexedScheduler over 2N+1 sources:
//   source 0         = the arrival stream           (priority kPriorityArrival)
//   source 1 + u     = node u's fire-start cadence  (priority kPriorityFireStart)
//   source 1 + N + u = node u's in-flight fire-end  (priority kPriorityFireEnd)
// Every schedule() consumes one global sequence number exactly like the
// reference EventQueue::push calls did (same call sites, same order), so the
// event order — including all same-timestamp tie-breaks — is bit-for-bit
// identical to the heap-based implementation (pinned by
// tests/test_sim_golden.cpp and tests/test_graph_sim_golden.cpp).
void simulate_enforced_waits_into(const Topology& topology,
                                  const std::vector<Cycles>& firing_intervals,
                                  arrivals::ArrivalProcess& arrival_process,
                                  const EnforcedSimConfig& config,
                                  TrialMetrics& metrics) {
  const std::size_t n = topology.nodes.size();
  RIPPLE_REQUIRE(firing_intervals.size() == n, "one firing interval per node");
  for (NodeIndex u = 0; u < n; ++u) {
    RIPPLE_REQUIRE(firing_intervals[u] >= topology.nodes[u].service_time - 1e-9,
                   "firing interval below service time at node '" +
                       topology.nodes[u].name + "'");
  }
  RIPPLE_REQUIRE(config.input_count > 0, "need at least one input");
  RIPPLE_REQUIRE(config.initial_offsets.empty() ||
                     config.initial_offsets.size() == n,
                 "one phase offset per node (or none)");

  dist::Xoshiro256 rng(config.seed);
  const std::uint32_t v = topology.simd_width;

  metrics.reset(n);
  metrics.vector_width = v;
  metrics.sharing_actors = n;  // each node is active or waiting all run long
  metrics.arm_latency_histogram(config.deadline);

  // Hot-loop caches: service times and raw gain pointers in flat arrays.
  std::vector<Cycles> service_time(n);
  for (NodeIndex u = 0; u < n; ++u) {
    service_time[u] = topology.nodes[u].service_time;
  }
  std::vector<const dist::GainDistribution*> gain(topology.gain.size());
  for (std::size_t q = 0; q < gain.size(); ++q) gain[q] = topology.gain[q].get();

  std::vector<util::RingBuffer<RootId>> queues(topology.reader.size());
  for (auto& queue : queues) queue.reserve(4 * v);
  // Outputs of the in-progress firing of node u, one bundle per out-queue in
  // slots u * stride + s (a sink keeps its consumed roots in slot 0 until
  // they exit at firing end). Reused across firings; reserved to the
  // per-firing worst case up front.
  std::size_t stride = 1;
  for (const TopologyNode& node : topology.nodes) {
    stride = std::max(stride, node.out_queues.size());
  }
  std::vector<std::vector<RootId>> in_flight(n * stride);
  for (NodeIndex u = 0; u < n; ++u) {
    const std::vector<std::size_t>& outs = topology.nodes[u].out_queues;
    if (outs.empty()) in_flight[u * stride].reserve(v);
    for (std::size_t s = 0; s < outs.size(); ++s) {
      in_flight[u * stride + s].reserve(static_cast<std::size_t>(v) *
                                        gain[outs[s]]->max_outputs());
    }
  }
  // Per-firing gain draws: one batched virtual call instead of one per item.
  std::vector<dist::OutputCount> gain_draws(v);

  std::vector<Cycles> root_arrival;
  root_arrival.reserve(config.input_count);
  std::vector<bool> root_missed(config.input_count, false);

  // Items currently inside the pipeline (queued or in flight); the trial ends
  // when the stream is exhausted and this count reaches zero.
  std::uint64_t live_items = 0;
  bool arrivals_done = false;
  // Fixed-rate streams never touch the RNG, so their gap can be hoisted out
  // of the per-arrival virtual dispatch without changing any draw.
  const Cycles fixed_gap = arrival_process.fixed_interarrival();

  const std::size_t kArrivalSource = 0;
  const std::size_t kFireStartBase = 1;
  const std::size_t kFireEndBase = 1 + n;
  IndexedScheduler events(2 * n + 1);

  // First arrival after one inter-arrival gap; every node starts its cadence
  // with a firing at its phase offset (t = 0 by default).
  events.schedule(kArrivalSource, arrival_process.next_interarrival(rng),
                  kPriorityArrival);
  for (const NodeIndex u : topology.start_order) {
    const Cycles offset =
        config.initial_offsets.empty() ? 0.0 : config.initial_offsets[u];
    RIPPLE_REQUIRE(offset >= 0.0, "phase offsets must be non-negative");
    events.schedule(kFireStartBase + u, offset, kPriorityFireStart);
  }

#if RIPPLE_OBS
  // One branch on a cached pointer per record when tracing is on; a single
  // inactive-writer check when it is off. Tracks are node indices on the sim
  // timeline, plus the topology's extra (per-edge) tracks.
  obs::TraceWriter trace = obs::TraceWriter::for_current_thread();
  if (trace.active()) {
    for (NodeIndex u = 0; u < n; ++u) {
      obs::TraceSession::global().set_track_name(
          obs::Domain::kSim, static_cast<std::uint32_t>(u),
          topology.nodes[u].name);
    }
    for (const auto& [track, name] : topology.extra_tracks) {
      obs::TraceSession::global().set_track_name(obs::Domain::kSim, track,
                                                 name);
    }
  }
#endif

  std::uint64_t processed_events = 0;
  while (!events.empty() && processed_events < config.max_events) {
    const IndexedScheduler::Next event = events.pop();
    ++processed_events;
    const Cycles now = event.time;

    if (event.source >= kFireEndBase) {
      // ------------------------------------------------------------ FireEnd
      const NodeIndex u = static_cast<NodeIndex>(event.source - kFireEndBase);
      const TopologyNode& topo = topology.nodes[u];
      std::vector<RootId>* bundles = &in_flight[u * stride];
      if (topo.out_queues.empty()) {
        // Sink exit: slot 0 holds the consumed roots.
        for (const RootId root : bundles[0]) {
          ++metrics.sink_outputs;
          const Cycles latency = now - root_arrival[root];
          metrics.record_latency(latency);
          if (config.deadline > 0.0 &&
              latency > config.deadline * (1.0 + 1e-12) && !root_missed[root]) {
            root_missed[root] = true;
            ++metrics.inputs_missed;
#if RIPPLE_OBS
            if (trace.active()) {
              // Negative slack = how late the item exited.
              trace.instant(obs::Domain::kSim, static_cast<std::uint32_t>(u),
                            "deadline_miss", now, config.deadline - latency);
            }
#endif
          }
          metrics.makespan = std::max(metrics.makespan, now);
        }
        live_items -= bundles[0].size();
        bundles[0].clear();
      } else {
        for (std::size_t s = 0; s < topo.out_queues.size(); ++s) {
          auto& queue = queues[topo.out_queues[s]];
          for (const RootId root : bundles[s]) queue.push_back(root);
          bundles[s].clear();
        }
      }
#if RIPPLE_OBS
      if (trace.active()) {
        trace.end(obs::Domain::kSim, static_cast<std::uint32_t>(u), topo.span,
                  now);
      }
#endif
    } else if (event.source >= kFireStartBase) {
      // ---------------------------------------------------------- FireStart
      const NodeIndex u = static_cast<NodeIndex>(event.source - kFireStartBase);
      const TopologyNode& topo = topology.nodes[u];
      NodeMetrics& node = metrics.nodes[u];
      const std::vector<std::size_t>& ins = topo.in_queues;
      // Queue lengths only shrink at their reader's fire-starts, so the
      // running maximum observed here (pre-consume) is the peak depth.
      // Single-input nodes take what is queued; merges and synchronizers
      // take only lanes matched on every in-queue.
      std::size_t deepest = 0;
      std::size_t matched = queues[ins[0]].size();
      for (const std::size_t q : ins) {
        deepest = std::max(deepest, queues[q].size());
        matched = std::min(matched, queues[q].size());
      }
      node.max_queue_length =
          std::max<std::uint64_t>(node.max_queue_length, deepest);
      const std::uint32_t consumed =
          static_cast<std::uint32_t>(std::min<std::size_t>(matched, v));
#if RIPPLE_OBS
      if (trace.active()) {
        for (std::size_t j = 0; j < ins.size(); ++j) {
          trace.counter(obs::Domain::kSim, topo.depth_tracks[j],
                        topo.depth_counter, now,
                        static_cast<double>(queues[ins[j]].size()));
        }
        if (consumed > 0) {
          // A FireEnd is guaranteed for every consuming firing, so the span
          // always closes; empty charged firings are instants instead.
          trace.begin(obs::Domain::kSim, static_cast<std::uint32_t>(u),
                      topo.span, now);
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
        const std::vector<std::size_t>& outs = topo.out_queues;
        std::vector<RootId>* bundles = &in_flight[u * stride];
        const std::uint64_t consumed_total =
            static_cast<std::uint64_t>(consumed) * ins.size();
        node.items_consumed += consumed_total;
        if (outs.empty()) {
          // Sink: consumed roots exit at firing end.
          const auto& queue = queues[ins[0]];
          for (std::uint32_t k = 0; k < consumed; ++k) {
            bundles[0].push_back(queue[k]);
          }
        } else {
          // Lanes take the root of their in-queue: the first one for stages,
          // tees and merges (a merge re-joins copies of the same root),
          // stream j's for a synchronizer's out-queue j. A tee samples and
          // fills every out-queue, a synchronizer one per stream; gains are
          // drawn per out-queue in out-queue order, one batched call each.
          const bool per_queue =
              topo.role == NodeRole::kTee || topo.role == NodeRole::kSync;
          const std::size_t slots = per_queue ? outs.size() : 1;
          std::uint64_t produced = 0;
          for (std::size_t s = 0; s < slots; ++s) {
            const auto& queue =
                queues[ins[topo.role == NodeRole::kSync ? s : 0]];
            gain[outs[s]]->sample_n(rng, gain_draws.data(), consumed);
            auto& bundle = bundles[s];
            for (std::uint32_t k = 0; k < consumed; ++k) {
              const RootId root = queue[k];
              const dist::OutputCount outputs = gain_draws[k];
              produced += outputs;
              for (dist::OutputCount o = 0; o < outputs; ++o) {
                bundle.push_back(root);
              }
            }
          }
          node.items_produced += produced;
          // Consumed items are replaced by their outputs.
          live_items += produced;
          live_items -= consumed_total;
        }
        for (const std::size_t q : ins) queues[q].discard_front(consumed);
        events.schedule(kFireEndBase + u, now + service_time[u],
                        kPriorityFireEnd);
      }

      // Next firing on the fixed cadence — but once the stream has drained,
      // let idle nodes stop so the event loop terminates.
      if (!(arrivals_done && live_items == 0)) {
        events.schedule(kFireStartBase + u, now + firing_intervals[u],
                        kPriorityFireStart);
      }
    } else {
      // ------------------------------------------------------------ Arrival
      //
      // In a fast stream most events are arrivals landing between firings,
      // and while arrivals process, every *other* source is frozen — so take
      // the scheduler's horizon once and consume consecutive arrivals in a
      // tight loop for as long as they provably pop first. Event order is
      // unchanged (Horizon::beaten_by is exact on the (time, priority, seq)
      // comparator), and the skipped sequence numbers cannot change any
      // tie-break because the arrival stream is the only
      // kPriorityArrival-priority source.
      const IndexedScheduler::Horizon horizon = events.horizon();
      Cycles arrival_time = now;
      auto& arrivals = queues[topology.arrival_queue];
      while (true) {
        const RootId root = static_cast<RootId>(root_arrival.size());
        root_arrival.push_back(arrival_time);
        arrivals.push_back(root);
        ++live_items;
        if (root_arrival.size() >= config.input_count) {
          arrivals_done = true;
          break;
        }
        const Cycles next_time =
            arrival_time + (fixed_gap > 0.0
                                ? fixed_gap
                                : arrival_process.next_interarrival(rng));
        if (processed_events >= config.max_events ||
            !horizon.beaten_by(next_time, kPriorityArrival)) {
          events.schedule(kArrivalSource, next_time, kPriorityArrival);
          break;
        }
        arrival_time = next_time;
        ++processed_events;
      }
    }
  }

  RIPPLE_REQUIRE(processed_events < config.max_events,
                 "event budget exhausted (unstable schedule?)");
  metrics.events_processed = processed_events;
  metrics.inputs_arrived = root_arrival.size();
  metrics.inputs_on_time = metrics.inputs_arrived - metrics.inputs_missed;
  if (metrics.makespan <= 0.0 && !root_arrival.empty()) {
    metrics.makespan = root_arrival.back();
  }
}

void simulate_enforced_waits_into(const sdf::PipelineSpec& pipeline,
                                  const std::vector<Cycles>& firing_intervals,
                                  arrivals::ArrivalProcess& arrival_process,
                                  const EnforcedSimConfig& config,
                                  TrialMetrics& out) {
  simulate_enforced_waits_into(chain_topology(pipeline, "fire"),
                               firing_intervals, arrival_process, config, out);
}

TrialMetrics simulate_enforced_waits(const sdf::PipelineSpec& pipeline,
                                     const std::vector<Cycles>& firing_intervals,
                                     arrivals::ArrivalProcess& arrival_process,
                                     const EnforcedSimConfig& config) {
  TrialMetrics metrics;
  simulate_enforced_waits_into(pipeline, firing_intervals, arrival_process,
                               config, metrics);
  return metrics;
}

}  // namespace ripple::sim
