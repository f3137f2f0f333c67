#include "sim/greedy_sim.hpp"

#include <algorithm>

#include "dist/rng.hpp"
#include "sim/lane_routing.hpp"
#include "util/assert.hpp"
#include "util/ring_buffer.hpp"

#if RIPPLE_OBS
#include "obs/obs.hpp"
#endif

namespace ripple::sim {

using detail::RootId;

TrialMetrics simulate_greedy_throughput(const Topology& topology,
                                        arrivals::ArrivalProcess& arrival_process,
                                        const GreedySimConfig& config) {
  const std::size_t n = topology.nodes.size();
  RIPPLE_REQUIRE(config.input_count > 0, "need at least one input");
  RIPPLE_REQUIRE(config.min_batch >= 1, "min_batch must be at least 1");

  dist::Xoshiro256 rng(config.seed);
  const std::uint32_t v = topology.simd_width;
  const double exclusive_scale = 1.0 / static_cast<double>(n);

  TrialMetrics metrics;
  metrics.nodes.resize(n);
  metrics.vector_width = v;
  metrics.sharing_actors = 1;  // one node at a time owns the whole processor
  metrics.arm_latency_histogram(config.deadline);

  // Flat caches for the firing loop (see enforced_sim.cpp).
  std::vector<Cycles> service_time(n);
  for (NodeIndex u = 0; u < n; ++u) {
    service_time[u] = topology.nodes[u].service_time;
  }
  std::vector<const dist::GainDistribution*> gain(topology.gain.size());
  for (std::size_t q = 0; q < gain.size(); ++q) gain[q] = topology.gain[q].get();
  // The selection scan runs once per loop turn, so it walks a flat list in
  // start (topological) order holding each node's first in-queue, and
  // reads the in-queue list only of nodes with several (merges,
  // synchronizers).
  struct Candidate {
    NodeIndex node;
    std::size_t first_in;
    bool multi_in;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(n);
  for (const NodeIndex u : topology.start_order) {
    const std::vector<std::size_t>& ins = topology.nodes[u].in_queues;
    candidates.push_back({u, ins[0], ins.size() > 1});
  }

  const std::vector<dist::OutputCount> max_outputs =
      detail::max_outputs_per_queue(topology.gain);

  std::vector<util::RingBuffer<RootId>> queues(topology.reader.size());
  for (auto& queue : queues) queue.reserve(4 * v);
  std::vector<dist::OutputCount> gain_draws(v);
  // One firing's outputs on one out-queue, appended to it in bulk, or the
  // roots a sink firing takes; sized to the worst case of any of them.
  std::size_t bundle_slots = 0;
  for (const dist::OutputCount max_out : max_outputs) {
    bundle_slots = std::max(bundle_slots, detail::bundle_capacity(v, max_out));
  }
  std::vector<RootId> bundle(bundle_slots);

  std::vector<Cycles> root_arrival;
  root_arrival.reserve(config.input_count);
  std::vector<bool> root_missed(config.input_count, false);

  Cycles now = 0.0;
  Cycles next_arrival = arrival_process.next_interarrival(rng);
  ItemCount generated = 0;

  auto& arrivals = queues[topology.arrival_queue];
  NodeMetrics& source = metrics.nodes[topology.reader[topology.arrival_queue]];
  auto drain_arrivals_until = [&](Cycles time) {
    while (generated < config.input_count && next_arrival <= time + 1e-12) {
      const RootId root = static_cast<RootId>(root_arrival.size());
      root_arrival.push_back(next_arrival);
      ++metrics.inputs_arrived;
      arrivals.push_back(root);
      source.max_queue_length =
          std::max<std::uint64_t>(source.max_queue_length, arrivals.size());
      ++generated;
      if (generated < config.input_count) {
        next_arrival += arrival_process.next_interarrival(rng);
      }
    }
  };

#if RIPPLE_OBS
  obs::TraceWriter trace = obs::TraceWriter::for_current_thread();
  if (trace.active()) {
    for (NodeIndex u = 0; u < n; ++u) {
      obs::TraceSession::global().set_track_name(
          obs::Domain::kSim, static_cast<std::uint32_t>(u),
          topology.nodes[u].name);
    }
  }
#endif

  std::uint64_t firings = 0;
  while (firings < config.max_firings) {
    drain_arrivals_until(now);
    const bool arrivals_done = generated >= config.input_count;

    // Pick the node with the most queued input among those that can
    // consume; ties go to the deeper node, the later one in the start
    // (topological) order, which drives items toward the sink. min_batch
    // gates the matched batch until the stream has ended.
    std::size_t best = n;  // sentinel: nothing eligible
    std::size_t best_queued = 0;
    std::size_t matched = 0;
    for (const Candidate& c : candidates) {
      std::size_t lanes = queues[c.first_in].size();
      std::size_t total = lanes;
      if (c.multi_in) {
        total = 0;
        for (const std::size_t q : topology.nodes[c.node].in_queues) {
          total += queues[q].size();
          lanes = std::min(lanes, queues[q].size());
        }
      }
      if (lanes == 0) continue;
      if (!arrivals_done && lanes < config.min_batch) continue;
      if (total >= best_queued) {  // >= : the deeper node wins ties
        best = c.node;
        best_queued = total;
        matched = lanes;
      }
    }

    if (best == n) {
      // Nothing can consume now: idle to the next arrival, or finish. Once
      // the stream has ended min_batch no longer gates, so this is the
      // drain's end (a merge may strand unmatched partial tuples; they are
      // dropped).
      if (arrivals_done) break;
      now = std::max(now, next_arrival);
      continue;
    }

    // Fire node `best` exclusively.
    ++firings;
    const TopologyNode& topo = topology.nodes[best];
    NodeMetrics& node = metrics.nodes[best];
    const std::vector<std::size_t>& ins = topo.in_queues;
    const std::vector<std::size_t>& outs = topo.out_queues;
    const std::uint32_t consumed =
        static_cast<std::uint32_t>(std::min<std::size_t>(matched, v));
    ++node.firings;
    node.items_consumed += static_cast<std::uint64_t>(consumed) * ins.size();
    const Cycles duration = service_time[best] * exclusive_scale;
    node.active_time += duration;
#if RIPPLE_OBS
    if (trace.active()) {
      trace.counter(obs::Domain::kSim, static_cast<std::uint32_t>(best),
                    topo.depth_counter, now, static_cast<double>(matched));
      trace.begin(obs::Domain::kSim, static_cast<std::uint32_t>(best),
                  topo.span, now);
    }
#endif
    now += duration;

    if (outs.empty()) {
      detail::copy_lanes(queues[ins[0]], consumed, bundle.data());
      queues[ins[0]].discard_front(consumed);
      for (std::uint32_t k = 0; k < consumed; ++k) {
        const RootId root = bundle[k];
        ++metrics.sink_outputs;
        const Cycles latency = now - root_arrival[root];
        metrics.record_latency(latency);
        if (config.deadline > 0.0 &&
            latency > config.deadline * (1.0 + 1e-12) && !root_missed[root]) {
          root_missed[root] = true;
          ++metrics.inputs_missed;
#if RIPPLE_OBS
          if (trace.active()) {
            trace.instant(obs::Domain::kSim,
                          static_cast<std::uint32_t>(best), "deadline_miss",
                          now, config.deadline - latency);
          }
#endif
        }
        metrics.makespan = std::max(metrics.makespan, now);
      }
    } else {
      // Routing as in the enforced loop: lanes carry their in-queue's root
      // (stream s's for a synchronizer's out-queue s, else the first
      // in-queue's), one batched gain call per filled out-queue, in
      // out-queue order. A tee fills every out-queue from the same lanes.
      const bool sync = topo.role == NodeRole::kSync;
      const std::size_t slots =
          sync || topo.role == NodeRole::kTee ? outs.size() : 1;
      std::uint64_t produced = 0;
      for (std::size_t s = 0; s < slots; ++s) {
        auto& to = queues[outs[s]];
        gain[outs[s]]->sample_n(rng, gain_draws.data(), consumed);
        const std::size_t written = detail::expand_lanes(
            queues[ins[sync ? s : 0]], consumed, gain_draws.data(),
            max_outputs[outs[s]], bundle.data());
        to.append(bundle.data(), written);
        produced += written;
        NodeMetrics& target = metrics.nodes[topology.reader[outs[s]]];
        target.max_queue_length =
            std::max<std::uint64_t>(target.max_queue_length, to.size());
      }
      // Every in-queue gives up its matched lanes: a stage's or tee's one,
      // a merge's tuple, a synchronizer's streams.
      for (const std::size_t q : ins) queues[q].discard_front(consumed);
      node.items_produced += produced;
    }
#if RIPPLE_OBS
    if (trace.active()) {
      trace.end(obs::Domain::kSim, static_cast<std::uint32_t>(best), topo.span,
                now);
    }
#endif
  }
  RIPPLE_REQUIRE(firings < config.max_firings,
                 "firing budget exhausted (arrival rate beyond capacity?)");

  metrics.events_processed = firings;
  metrics.inputs_on_time = metrics.inputs_arrived - metrics.inputs_missed;
  if (metrics.makespan <= 0.0 && !root_arrival.empty()) {
    metrics.makespan = root_arrival.back();
  }
  return metrics;
}

TrialMetrics simulate_greedy_throughput(const sdf::PipelineSpec& pipeline,
                                        arrivals::ArrivalProcess& arrival_process,
                                        const GreedySimConfig& config) {
  return simulate_greedy_throughput(chain_topology(pipeline, "fire"),
                                    arrival_process, config);
}

}  // namespace ripple::sim
