#include "sim/greedy_sim.hpp"

#include <algorithm>

#include "dist/rng.hpp"
#include "util/assert.hpp"
#include "util/ring_buffer.hpp"

#if RIPPLE_OBS
#include "obs/obs.hpp"
#endif

namespace ripple::sim {

namespace {

using RootId = std::uint32_t;

/// Append each of the first `lanes` roots in `from` to `to`, gains[k] times
/// for lane k, and return the number appended. kPop takes the lanes off
/// `from` as it goes; otherwise they stay for the caller to drop (a tee reads
/// them once per out-queue). The two are separate loops on purpose: one loop
/// that branches per lane runs about 10% slower on the chain benchmark.
template <bool kPop>
std::uint64_t replicate(util::RingBuffer<RootId>& from,
                        util::RingBuffer<RootId>& to,
                        const dist::OutputCount* gains, std::uint32_t lanes) {
  std::uint64_t produced = 0;
  for (std::uint32_t k = 0; k < lanes; ++k) {
    const RootId root = kPop ? from.pop_front() : from[k];
    produced += gains[k];
    for (dist::OutputCount o = 0; o < gains[k]; ++o) to.push_back(root);
  }
  return produced;
}

}  // namespace

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

  std::vector<util::RingBuffer<RootId>> queues(topology.reader.size());
  for (auto& queue : queues) queue.reserve(4 * v);
  std::vector<dist::OutputCount> gain_draws(v);

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
      auto& queue = queues[ins[0]];
      for (std::uint32_t k = 0; k < consumed; ++k) {
        const RootId root = queue.pop_front();
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
      const bool tee = topo.role == NodeRole::kTee;
      const bool sync = topo.role == NodeRole::kSync;
      const std::size_t slots = tee || sync ? outs.size() : 1;
      std::uint64_t produced = 0;
      for (std::size_t s = 0; s < slots; ++s) {
        auto& from = queues[ins[sync ? s : 0]];
        auto& to = queues[outs[s]];
        gain[outs[s]]->sample_n(rng, gain_draws.data(), consumed);
        produced += tee ? replicate<false>(from, to, gain_draws.data(), consumed)
                        : replicate<true>(from, to, gain_draws.data(), consumed);
        NodeMetrics& target = metrics.nodes[topology.reader[outs[s]]];
        target.max_queue_length =
            std::max<std::uint64_t>(target.max_queue_length, to.size());
      }
      // Drop what the loop above read but did not pop: a tee's lanes, and
      // a merge's matched lanes on its other in-queues.
      if (tee) {
        queues[ins[0]].discard_front(consumed);
      } else if (!sync) {
        for (std::size_t j = 1; j < ins.size(); ++j) {
          queues[ins[j]].discard_front(consumed);
        }
      }
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
