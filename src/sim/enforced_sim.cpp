#include "sim/enforced_sim.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "dist/lane_streams.hpp"
#include "dist/rng.hpp"
#include "sim/event_sources.hpp"
#include "sim/lane_routing.hpp"
#include "util/assert.hpp"
#include "util/ring_buffer.hpp"

#if RIPPLE_OBS
#include "obs/obs.hpp"
#endif

namespace ripple::sim {

namespace {

using detail::RootId;

/// Same-timestamp ordering: deliveries become visible before new arrivals,
/// and both before the firing that may consume them.
enum EventPriority : int {
  kPriorityFireEnd = 0,
  kPriorityArrival = 1,
  kPriorityFireStart = 2,
};

/// What one run of the arrival fast path took: either the stream ran out,
/// or `next_time` is the first arrival it did not take, to be scheduled.
struct ArrivalRun {
  bool exhausted = false;
  Cycles next_time = 0.0;
  std::uint64_t extra_events = 0;  ///< arrivals taken after the first
};

/// Records the arrival at `time`, then each next one for as long as it
/// provably pops before every other armed event (`horizon`), the stream
/// has inputs left and `budget` further events remain. Kept out of line so
/// the loop gets registers of its own: inlined into the event loop, the
/// arrival time, the gap and the horizon were re-read from the stack on
/// every arrival, and the loop's speed moved with the surrounding code.
[[gnu::noinline]] ArrivalRun take_arrivals(
    Cycles time, const IndexedScheduler::Horizon horizon, Cycles fixed_gap,
    arrivals::ArrivalProcess& arrival_process, dist::Xoshiro256& rng,
    ItemCount input_count, std::uint64_t budget,
    std::vector<Cycles>& root_arrival) {
  std::uint64_t extra = 0;
  while (true) {
    root_arrival.push_back(time);
    if (root_arrival.size() >= input_count) return {true, 0.0, extra};
    const Cycles next =
        time + (fixed_gap > 0.0 ? fixed_gap
                                : arrival_process.next_interarrival(rng));
    if (extra >= budget || !horizon.beaten_by(next, kPriorityArrival)) {
      return {false, next, extra};
    }
    time = next;
    ++extra;
  }
}

/// One firing's outputs toward one out-queue. Storage is left uninitialized
/// (only the slots a firing writes are ever touched), so a group's lanes
/// size every bundle for the worst case without paying for it in memory.
struct Bundle {
  std::unique_ptr<RootId[]> roots;
  std::size_t capacity = 0;

  /// Room for `new_capacity` roots, keeping the first `kept`.
  void grow(std::size_t new_capacity, std::size_t kept) {
    std::unique_ptr<RootId[]> fresh =
        std::make_unique_for_overwrite<RootId[]>(new_capacity);
    std::copy_n(roots.get(), kept, fresh.get());
    roots = std::move(fresh);
    capacity = new_capacity;
  }
};

/// Bit k = lane k of a lockstep group.
using LaneMask = std::uint32_t;

/// fn(k) for every lane k in `mask`, in lane order.
template <std::size_t K, typename Fn>
inline void for_each_lane(LaneMask mask, const Fn& fn) {
  if constexpr (K == 1) {
    if (mask != 0) fn(std::size_t{0});
  } else {
    while (mask != 0) {
      fn(static_cast<std::size_t>(std::countr_zero(mask)));
      mask &= mask - 1;
    }
  }
}

/// Gain streams: one generator for a lone trial, one lane each for a group.
template <std::size_t K>
using GainStreams =
    std::conditional_t<K == 1, dist::Xoshiro256, dist::LaneStreams>;

void check_inputs(const Topology& topology,
                  const std::vector<Cycles>& firing_intervals,
                  const EnforcedSimConfig& config) {
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
//
// K lanes run K trials over one walk of that scheduler (DESIGN.md §8.1,
// "Lockstep trials"). Each fire source carries the mask of lanes it is armed
// in; an event does its work in those lanes only, and a source is armed
// while any lane arms it. K = 1 is the lone trial. For K > 1 the caller
// guarantees what makes the walk every lane's own (lockstep_eligible):
// fixed-rate arrivals, so every lane sees the same arrival times, root ids
// and arrival queue (one ring, shared); and no interval below its service
// time, so a node's fire-end has popped in every lane before its next
// fire-start, and the lanes armed at a source always agree on its time.
// Filtered to one lane, the walk is then that lane's own event order: the
// lanes differ only in queue contents, fire-ends, termination and gain
// draws. Only lane 0 records trace events.
template <std::size_t K>
void run_lanes(const Topology& topology,
               const std::vector<Cycles>& firing_intervals,
               arrivals::ArrivalProcess& arrival_process,
               const EnforcedSimConfig& config, const std::uint64_t* seeds,
               TrialMetrics* const* lane_metrics, std::size_t lane_count) {
  static_assert(K >= 1 && K <= 8, "root_missed keeps one bit per lane");
  const std::size_t n = topology.nodes.size();
  const std::uint32_t v = topology.simd_width;
  const LaneMask all_lanes = static_cast<LaneMask>((1u << lane_count) - 1);

  GainStreams<K> streams = [&] {
    if constexpr (K == 1) {
      return dist::Xoshiro256(seeds[0]);
    } else {
      dist::LaneStreams lanes;
      for (std::size_t k = 0; k < lane_count; ++k) lanes.seed(k, seeds[k]);
      return lanes;
    }
  }();
  for (std::size_t k = 0; k < lane_count; ++k) {
    TrialMetrics& metrics = *lane_metrics[k];
    metrics.reset(n);
    metrics.vector_width = v;
    metrics.sharing_actors = n;  // each node is active or waiting all run long
    metrics.arm_latency_histogram(config.deadline);
  }

  // Hot-loop caches: service times and raw gain pointers in flat arrays.
  std::vector<Cycles> service_time(n);
  for (NodeIndex u = 0; u < n; ++u) {
    service_time[u] = topology.nodes[u].service_time;
  }
  std::vector<const dist::GainDistribution*> gain(topology.gain.size());
  for (std::size_t q = 0; q < gain.size(); ++q) gain[q] = topology.gain[q].get();
  const std::vector<dist::OutputCount> max_outputs =
      detail::max_outputs_per_queue(topology.gain);

  // Lane k's queue q is queues[k * queue_count + q], except the arrival
  // queue, which every lane reads from lane 0's slot.
  const std::size_t queue_count = topology.reader.size();
  const std::size_t arrival_queue = topology.arrival_queue;
  std::vector<util::RingBuffer<RootId>> queues(K * queue_count);
  for (std::size_t k = 0; k < lane_count; ++k) {
    for (std::size_t q = 0; q < queue_count; ++q) {
      if (k == 0 || q != arrival_queue) {
        queues[k * queue_count + q].reserve(4 * v);
      }
    }
  }
  auto queue = [&](std::size_t k, std::size_t q) -> util::RingBuffer<RootId>& {
    return queues[(q == arrival_queue ? 0 : k) * queue_count + q];
  };
  // Outputs of the in-progress firing of node u in lane k, one bundle per
  // out-queue in slots (k * n + u) * stride + s, holding in_flight_size[slot]
  // roots (a sink keeps its consumed roots in slot 0 until they exit at
  // firing end). Sized to the per-firing worst case up front and reused
  // across firings; a bundle grows only if a firing starts before the
  // previous one ends (an interval within the 1e-9 service-time tolerance,
  // K = 1 only), when the two share one delivery.
  std::size_t stride = 1;
  for (const TopologyNode& node : topology.nodes) {
    stride = std::max(stride, node.out_queues.size());
  }
  std::vector<Bundle> in_flight(K * n * stride);
  std::vector<std::size_t> in_flight_size(K * n * stride, 0);
  for (std::size_t k = 0; k < lane_count; ++k) {
    for (NodeIndex u = 0; u < n; ++u) {
      const std::vector<std::size_t>& outs = topology.nodes[u].out_queues;
      const std::size_t slot = (k * n + u) * stride;
      if (outs.empty()) in_flight[slot].grow(v, 0);
      for (std::size_t s = 0; s < outs.size(); ++s) {
        in_flight[slot + s].grow(
            detail::bundle_capacity(v, max_outputs[outs[s]]), 0);
      }
    }
  }
  // Per-firing gain draws, one batched call per out-queue: draw i of lane k
  // at gain_draws[i * K + k].
  std::vector<dist::OutputCount> gain_draws(static_cast<std::size_t>(v) * K);

  std::vector<Cycles> root_arrival;
  root_arrival.reserve(config.input_count);
  // Bit k: root already counted as a miss in lane k.
  std::vector<std::uint8_t> root_missed(config.input_count, 0);

  // Items currently inside each lane's pipeline (queued or in flight); a
  // lane's nodes stop when the stream is exhausted and its count reaches
  // zero, and the walk ends when every lane's have.
  std::array<std::uint64_t, K> live_items{};
  bool arrivals_done = false;
  // Fixed-rate streams never touch the RNG, so their gap can be hoisted out
  // of the per-arrival virtual dispatch without changing any draw.
  const Cycles fixed_gap = arrival_process.fixed_interarrival();
  // A lone trial's arrivals draw from its gain stream; a group's are fixed
  // rate and draw nothing, so they get a stand-in.
  dist::Xoshiro256 fixed_rate_stand_in(0);
  dist::Xoshiro256& arrival_rng = [&]() -> dist::Xoshiro256& {
    if constexpr (K == 1) {
      return streams;
    } else {
      return fixed_rate_stand_in;
    }
  }();

  const std::size_t kArrivalSource = 0;
  const std::size_t kFireStartBase = 1;
  const std::size_t kFireEndBase = 1 + n;
  IndexedScheduler events(2 * n + 1);
  std::vector<LaneMask> fire_start_lanes(n, all_lanes);
  std::vector<LaneMask> fire_end_lanes(n, 0);

  // First arrival after one inter-arrival gap; every node starts its cadence
  // with a firing at its phase offset (t = 0 by default).
  events.schedule(kArrivalSource, arrival_process.next_interarrival(arrival_rng),
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
  // Arrivals are every lane's events; fire events count in their lanes.
  std::uint64_t arrival_events = 0;
  std::array<std::uint64_t, K> fire_events{};
  while (!events.empty() && processed_events < config.max_events) {
    const IndexedScheduler::Next event = events.pop();
    ++processed_events;
    const Cycles now = event.time;

    if (event.source >= kFireEndBase) {
      // ------------------------------------------------------------ FireEnd
      const NodeIndex u = static_cast<NodeIndex>(event.source - kFireEndBase);
      const TopologyNode& topo = topology.nodes[u];
      const LaneMask lanes = fire_end_lanes[u];
      for_each_lane<K>(lanes, [&](std::size_t k) {
        ++fire_events[k];
        const std::size_t slot = (k * n + u) * stride;
        if (!topo.out_queues.empty()) {
          for (std::size_t s = 0; s < topo.out_queues.size(); ++s) {
            queue(k, topo.out_queues[s])
                .append(in_flight[slot + s].roots.get(),
                        in_flight_size[slot + s]);
            in_flight_size[slot + s] = 0;
          }
          return;
        }
        // Sink exit: slot 0 holds the consumed roots.
        TrialMetrics& metrics = *lane_metrics[k];
        const std::uint8_t lane_bit = static_cast<std::uint8_t>(1u << k);
        const RootId* exits = in_flight[slot].roots.get();
        for (std::size_t e = 0; e < in_flight_size[slot]; ++e) {
          const RootId root = exits[e];
          ++metrics.sink_outputs;
          const Cycles latency = now - root_arrival[root];
          metrics.record_latency(latency);
          if (config.deadline > 0.0 &&
              latency > config.deadline * (1.0 + 1e-12) &&
              (root_missed[root] & lane_bit) == 0) {
            root_missed[root] |= lane_bit;
            ++metrics.inputs_missed;
#if RIPPLE_OBS
            if (k == 0 && trace.active()) {
              // Negative slack = how late the item exited.
              trace.instant(obs::Domain::kSim, static_cast<std::uint32_t>(u),
                            "deadline_miss", now, config.deadline - latency);
            }
#endif
          }
          metrics.makespan = std::max(metrics.makespan, now);
        }
        live_items[k] -= in_flight_size[slot];
        in_flight_size[slot] = 0;
      });
#if RIPPLE_OBS
      if ((lanes & 1) != 0 && trace.active()) {
        trace.end(obs::Domain::kSim, static_cast<std::uint32_t>(u), topo.span,
                  now);
      }
#endif
    } else if (event.source >= kFireStartBase) {
      // ---------------------------------------------------------- FireStart
      const NodeIndex u = static_cast<NodeIndex>(event.source - kFireStartBase);
      const TopologyNode& topo = topology.nodes[u];
      const std::vector<std::size_t>& ins = topo.in_queues;
      const std::vector<std::size_t>& outs = topo.out_queues;
      const LaneMask lanes = fire_start_lanes[u];
      std::array<std::uint32_t, K> consumed{};
      LaneMask consuming = 0;
      for_each_lane<K>(lanes, [&](std::size_t k) {
        ++fire_events[k];
        NodeMetrics& node = lane_metrics[k]->nodes[u];
        // Queue lengths only shrink at their reader's fire-starts, so the
        // running maximum observed here (pre-consume) is the peak depth.
        // Single-input nodes take what is queued; merges and synchronizers
        // take only lanes matched on every in-queue.
        std::size_t deepest = 0;
        std::size_t matched = queue(k, ins[0]).size();
        for (const std::size_t q : ins) {
          deepest = std::max(deepest, queue(k, q).size());
          matched = std::min(matched, queue(k, q).size());
        }
        node.max_queue_length =
            std::max<std::uint64_t>(node.max_queue_length, deepest);
        consumed[k] = static_cast<std::uint32_t>(std::min<std::size_t>(matched, v));
#if RIPPLE_OBS
        if (k == 0 && trace.active()) {
          for (std::size_t j = 0; j < ins.size(); ++j) {
            trace.counter(obs::Domain::kSim, topo.depth_tracks[j],
                          topo.depth_counter, now,
                          static_cast<double>(queue(k, ins[j]).size()));
          }
          if (consumed[k] > 0) {
            // A FireEnd is guaranteed for every consuming firing, so the
            // span always closes; empty charged firings are instants instead.
            trace.begin(obs::Domain::kSim, static_cast<std::uint32_t>(u),
                        topo.span, now);
          } else if (config.charge_empty_firings) {
            trace.instant(obs::Domain::kSim, static_cast<std::uint32_t>(u),
                          "empty_firing", now, service_time[u]);
          }
        }
#endif
        if (consumed[k] > 0 || config.charge_empty_firings) {
          ++node.firings;
          if (consumed[k] == 0) ++node.empty_firings;
          node.active_time += service_time[u];
        }
        if (consumed[k] > 0) consuming |= LaneMask{1} << k;
      });

      if (consuming != 0) {
        // Room for `room` more roots in bundle `at`, after the outputs of
        // any firing still in flight.
        auto bundle_tail = [&](std::size_t at, std::size_t room) {
          Bundle& bundle = in_flight[at];
          if (bundle.capacity < in_flight_size[at] + room) {
            bundle.grow(in_flight_size[at] + room, in_flight_size[at]);
          }
          return bundle.roots.get() + in_flight_size[at];
        };
        const std::uint64_t fan_in = ins.size();
        if (outs.empty()) {
          // Sink: consumed roots exit at firing end.
          for_each_lane<K>(consuming, [&](std::size_t k) {
            const std::size_t slot = (k * n + u) * stride;
            detail::copy_lanes(queue(k, ins[0]), consumed[k],
                               bundle_tail(slot, consumed[k]));
            in_flight_size[slot] += consumed[k];
            lane_metrics[k]->nodes[u].items_consumed += consumed[k] * fan_in;
          });
        } else {
          // Lanes take the root of their in-queue: the first one for stages,
          // tees and merges (a merge re-joins copies of the same root),
          // stream j's for a synchronizer's out-queue j. A tee samples and
          // fills every out-queue, a synchronizer one per stream; gains are
          // drawn per out-queue in out-queue order, one batched call each
          // for all lanes.
          const bool per_queue =
              topo.role == NodeRole::kTee || topo.role == NodeRole::kSync;
          const std::size_t slots = per_queue ? outs.size() : 1;
          std::array<std::uint64_t, K> produced{};
          for (std::size_t s = 0; s < slots; ++s) {
            const dist::OutputCount max_out = max_outputs[outs[s]];
            if constexpr (K == 1) {
              gain[outs[s]]->sample_n(streams, gain_draws.data(), consumed[0]);
            } else {
              gain[outs[s]]->sample_lanes(streams, consumed.data(),
                                          gain_draws.data());
            }
            const std::size_t in = ins[topo.role == NodeRole::kSync ? s : 0];
            for_each_lane<K>(consuming, [&](std::size_t k) {
              const std::size_t at = (k * n + u) * stride + s;
              RootId* bundle = bundle_tail(
                  at, detail::bundle_capacity(consumed[k], max_out));
              const std::size_t written = detail::expand_lanes<K>(
                  queue(k, in), consumed[k], gain_draws.data() + k, max_out,
                  bundle);
              in_flight_size[at] += written;
              produced[k] += written;
            });
          }
          for_each_lane<K>(consuming, [&](std::size_t k) {
            NodeMetrics& node = lane_metrics[k]->nodes[u];
            const std::uint64_t consumed_total = consumed[k] * fan_in;
            node.items_consumed += consumed_total;
            node.items_produced += produced[k];
            // Consumed items are replaced by their outputs.
            live_items[k] += produced[k];
            live_items[k] -= consumed_total;
          });
        }
        // Every lane that consumed drops its lanes from its in-queues; the
        // shared arrival queue drops them once (its reader consumes the
        // same count in every lane).
        for_each_lane<K>(consuming, [&](std::size_t k) {
          for (const std::size_t q : ins) {
            if (K == 1 || q != arrival_queue) {
              queue(k, q).discard_front(consumed[k]);
            }
          }
        });
        if constexpr (K > 1) {
          if (ins[0] == arrival_queue) {
            queue(0, arrival_queue)
                .discard_front(consumed[std::countr_zero(consuming)]);
          }
        }
        fire_end_lanes[u] = consuming;
        events.schedule(kFireEndBase + u, now + service_time[u],
                        kPriorityFireEnd);
      }

      // Next firing on the fixed cadence — but once the stream has drained,
      // let a lane's idle nodes stop so its walk terminates.
      LaneMask continuing = 0;
      for_each_lane<K>(lanes, [&](std::size_t k) {
        if (!(arrivals_done && live_items[k] == 0)) {
          continuing |= LaneMask{1} << k;
        }
      });
      fire_start_lanes[u] = continuing;
      if (continuing != 0) {
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
      // kPriorityArrival-priority source. A group's horizon is over every
      // lane's armed sources, so a run may end sooner than a lone trial's
      // would; that only re-arms the arrival source, whose sequence number
      // never decides a tie.
      const RootId first = static_cast<RootId>(root_arrival.size());
      const ArrivalRun run = take_arrivals(
          now, events.horizon(), fixed_gap, arrival_process, arrival_rng,
          config.input_count, config.max_events - processed_events,
          root_arrival);
      processed_events += run.extra_events;
      arrival_events += 1 + run.extra_events;
      if (run.exhausted) {
        arrivals_done = true;
      } else {
        events.schedule(kArrivalSource, run.next_time, kPriorityArrival);
      }
      // Roots are numbered in arrival order, so this run is a range of ids.
      const RootId end = static_cast<RootId>(root_arrival.size());
      auto& arrivals = queue(0, arrival_queue);
      for (RootId root = first; root < end; ++root) arrivals.push_back(root);
      for_each_lane<K>(all_lanes,
                       [&](std::size_t k) { live_items[k] += end - first; });
    }
  }

  RIPPLE_REQUIRE(processed_events < config.max_events,
                 "event budget exhausted (unstable schedule?)");
  for (std::size_t k = 0; k < lane_count; ++k) {
    TrialMetrics& metrics = *lane_metrics[k];
    metrics.events_processed = arrival_events + fire_events[k];
    metrics.inputs_arrived = root_arrival.size();
    metrics.inputs_on_time = metrics.inputs_arrived - metrics.inputs_missed;
    if (metrics.makespan <= 0.0 && !root_arrival.empty()) {
      metrics.makespan = root_arrival.back();
    }
  }
}

/// Whether `topology` at `firing_intervals` can run as one lockstep walk:
/// no interval below its service time (the 1e-9 tolerance lets a firing
/// start before the previous one ends, and then lanes could need one
/// fire-end source at two times), and an arrival reader with no other
/// in-queue (so it consumes the same arrivals in every lane).
bool lockstep_eligible(const Topology& topology,
                       const std::vector<Cycles>& firing_intervals) {
  for (NodeIndex u = 0; u < topology.nodes.size(); ++u) {
    if (firing_intervals[u] < topology.nodes[u].service_time) return false;
  }
  const NodeIndex reader = topology.reader[topology.arrival_queue];
  return topology.nodes[reader].in_queues.size() == 1;
}

}  // namespace

std::vector<Cycles> aligned_phase_offsets(const sdf::PipelineSpec& pipeline) {
  return aligned_phase_offsets(chain_topology(pipeline, "fire"));
}

void simulate_enforced_waits_into(const Topology& topology,
                                  const std::vector<Cycles>& firing_intervals,
                                  arrivals::ArrivalProcess& arrival_process,
                                  const EnforcedSimConfig& config,
                                  TrialMetrics& metrics) {
  check_inputs(topology, firing_intervals, config);
  TrialMetrics* const lane = &metrics;
  run_lanes<1>(topology, firing_intervals, arrival_process, config,
               &config.seed, &lane, 1);
}

void simulate_enforced_waits_lanes(const Topology& topology,
                                   const std::vector<Cycles>& firing_intervals,
                                   Cycles arrival_gap,
                                   const EnforcedSimConfig& config,
                                   std::span<const std::uint64_t> seeds,
                                   std::span<TrialMetrics> out) {
  RIPPLE_REQUIRE(!out.empty() && out.size() <= kTrialLanes,
                 "a lockstep group runs 1 to kTrialLanes trials");
  RIPPLE_REQUIRE(seeds.size() == out.size(), "one seed per trial");
  RIPPLE_REQUIRE(arrival_gap > 0.0, "fixed-rate arrivals need a positive gap");
  check_inputs(topology, firing_intervals, config);
  arrivals::FixedRateArrivals arrival_process(arrival_gap);
  std::array<TrialMetrics*, kTrialLanes> lanes{};
  for (std::size_t k = 0; k < out.size(); ++k) lanes[k] = &out[k];
  if (out.size() > 1 && lockstep_eligible(topology, firing_intervals)) {
    run_lanes<kTrialLanes>(topology, firing_intervals, arrival_process, config,
                           seeds.data(), lanes.data(), out.size());
    return;
  }
  for (std::size_t k = 0; k < out.size(); ++k) {
    run_lanes<1>(topology, firing_intervals, arrival_process, config,
                 &seeds[k], &lanes[k], 1);
  }
}

void simulate_enforced_waits_lanes(const sdf::PipelineSpec& pipeline,
                                   const std::vector<Cycles>& firing_intervals,
                                   Cycles arrival_gap,
                                   const EnforcedSimConfig& config,
                                   std::span<const std::uint64_t> seeds,
                                   std::span<TrialMetrics> out) {
  simulate_enforced_waits_lanes(chain_topology(pipeline, "fire"),
                                firing_intervals, arrival_gap, config, seeds,
                                out);
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
