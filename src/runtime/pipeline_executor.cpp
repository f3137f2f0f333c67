#include "runtime/pipeline_executor.hpp"

#include <algorithm>
#include <array>
#include <exception>
#include <optional>
#include <string>

#include "runtime/executor_internal.hpp"
#include "runtime/soa_queue.hpp"
#include "sim/event_queue.hpp"
#include "util/assert.hpp"

#if RIPPLE_OBS
#include "obs/obs.hpp"
#endif

namespace ripple::runtime {

namespace detail {

namespace {

Item default_materialize(const std::uint32_t* fields) {
  std::array<std::uint32_t, kMaxLaneFields> tuple{};
  for (std::size_t f = 0; f < kMaxLaneFields; ++f) tuple[f] = fields[f];
  return Item(tuple);
}

}  // namespace

std::optional<util::Result<ExecutionMetrics>> validate_run_config(
    const Topology& topology, std::size_t input_count,
    const ExecutorConfig& config) {
  using R = util::Result<ExecutionMetrics>;
  const std::size_t n = topology.nodes.size();
  if (config.firing_intervals.size() != n) {
    return R::failure("bad_config", "one firing interval per node required");
  }
  for (NodeIndex u = 0; u < n; ++u) {
    if (config.firing_intervals[u] < topology.nodes[u].service_time - 1e-9) {
      return R::failure("bad_config",
                        "firing interval below service time at node '" +
                            topology.nodes[u].name + "'");
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

void validate_stages(const Topology& topology,
                     const std::vector<BatchStage>& stages) {
  const std::size_t n = topology.nodes.size();
  RIPPLE_REQUIRE(stages.size() == n, "one stage function per pipeline node");
  // Representation each queue is read in: its reader's input shape
  // (synchronizers forward item lanes).
  std::vector<const BatchStage*> reader(topology.reader.size(), nullptr);
  for (NodeIndex u = 0; u < n; ++u) {
    const TopologyNode& node = topology.nodes[u];
    if (node.role == NodeRole::kSync) continue;
    const BatchStage& stage = stages[u];
    RIPPLE_REQUIRE(static_cast<bool>(stage.fn),
                   "stage functions must be callable");
    RIPPLE_REQUIRE(stage.input_fields <= kMaxLaneFields &&
                       stage.output_fields <= kMaxLaneFields,
                   "stage arity exceeds the lane register file");
    RIPPLE_REQUIRE(stage.carries_items || node.in_queues.size() == 1,
                   "typed stages read exactly one queue");
    for (const std::size_t q : node.in_queues) reader[q] = &stage;
  }
  for (NodeIndex u = 0; u < n; ++u) {
    const TopologyNode& node = topology.nodes[u];
    const BatchStage* writer =
        node.role == NodeRole::kSync ? nullptr : &stages[u];
    for (const std::size_t q : node.out_queues) {
      const bool reader_items = reader[q] == nullptr || reader[q]->carries_items;
      const bool writer_items = writer == nullptr || writer->carries_items;
      RIPPLE_REQUIRE(reader_items == writer_items,
                     "adjacent stages must share a lane representation");
      RIPPLE_REQUIRE(writer_items ||
                         reader[q]->input_fields == writer->output_fields,
                     "stage input arity must match predecessor output arity");
    }
  }
}

util::Result<ExecutionMetrics> run_vector_loop(
    const Topology& topology, const std::vector<BatchStage>& stages,
    const BatchInputs* typed_inputs, std::vector<Item>* item_inputs,
    const ExecutorConfig& config) {
  using R = util::Result<ExecutionMetrics>;
  const std::size_t n = topology.nodes.size();
  const std::size_t input_count =
      typed_inputs != nullptr ? typed_inputs->size() : item_inputs->size();
  if (auto invalid = validate_run_config(topology, input_count, config)) {
    return *std::move(invalid);
  }
  const bool per_input_gaps = !config.input_gaps.empty();

  const std::uint32_t v = topology.simd_width;

  ExecutionMetrics metrics;
  metrics.base.nodes.resize(n);
  metrics.base.vector_width = v;
  metrics.base.sharing_actors = n;
  metrics.base.arm_latency_histogram(config.deadline);

  // Each queue holds lanes in the representation its reader consumes.
  const std::vector<NodeIndex>& reader = topology.reader;
  std::vector<SoaQueue> queues(reader.size());
  for (std::size_t q = 0; q < queues.size(); ++q) {
    const NodeIndex u = reader[q];
    if (topology.nodes[u].role == NodeRole::kSync) {
      queues[q].configure(0, /*carries_items=*/true);
    } else {
      queues[q].configure(stages[u].input_fields, stages[u].carries_items);
    }
    queues[q].reserve(2 * v);
  }
  // Per-node in-flight firing: one emitter per out-queue (one at the sink),
  // in slots u * stride + s, holding outputs until the fire-end delivers
  // them, plus the root id of every consumed lane for root propagation.
  std::size_t stride = 1;
  for (const TopologyNode& node : topology.nodes) {
    stride = std::max(stride, node.out_queues.size());
  }
  std::vector<BatchEmitter> in_flight(n * stride);
  std::vector<std::vector<RootId>> in_flight_roots(n * stride);
  for (auto& roots : in_flight_roots) roots.reserve(v);

  std::vector<Cycles> root_arrival(input_count, 0.0);
  std::vector<bool> root_missed(input_count, false);

  std::uint64_t live_items = 0;
  std::size_t next_input = 0;
  // Arrival k's timestamp accumulates gap by gap (never k * gap) so the
  // doubles match the per-item oracle's arrival times bit for bit.
  Cycles next_arrival =
      per_input_gaps ? config.input_gaps[0] : config.input_gap;
  bool arrivals_done = false;

  // Lazily materialize every arrival with time <= now into the arrival
  // queue. Safe at any event boundary: arrivals only touch that queue,
  // which no fire-end writes, so their order against same-time fire-ends is
  // immaterial; fire-starts (which read it) always materialize first.
  SoaQueue& arrivals = queues[topology.arrival_queue];
  sim::NodeMetrics& source = metrics.base.nodes[reader[topology.arrival_queue]];
  const auto materialize_arrivals = [&](Cycles now) {
    if (arrivals_done || next_arrival > now) return;
    while (!arrivals_done && next_arrival <= now) {
      const RootId root = static_cast<RootId>(next_input);
      root_arrival[root] = next_arrival;
      ++metrics.base.inputs_arrived;
      if (typed_inputs != nullptr) {
        std::uint32_t fields[kMaxLaneFields];
        for (std::size_t f = 0; f < kMaxLaneFields; ++f) {
          fields[f] = typed_inputs->column(f)[next_input];
        }
        arrivals.push_fields(fields, root);
      } else {
        arrivals.push_item(std::move((*item_inputs)[next_input]), root);
      }
      ++live_items;
      ++next_input;
      if (next_input == input_count) {
        arrivals_done = true;
      } else {
        next_arrival +=
            per_input_gaps ? config.input_gaps[next_input] : config.input_gap;
      }
    }
    source.max_queue_length =
        std::max<std::uint64_t>(source.max_queue_length, arrivals.size());
  };

  sim::EventQueue<EventPayload> events;
  for (const NodeIndex u : topology.start_order) {
    events.push(0.0, kPriorityFireStart, {EventPayload::Kind::kFireStart, u});
  }

#if RIPPLE_OBS
  // Per-node spans on the sim timeline, mirroring the stochastic sims.
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

  SoaQueue::GatherScratch gather_scratch;
  std::vector<Item> item_window;  // dense per-firing item lanes
  std::uint64_t processed = 0;
  while (!events.empty() && processed < config.max_events) {
    const auto event = events.pop();
    ++processed;
    const Cycles now = event.time;
    materialize_arrivals(now);
    const NodeIndex u = event.payload.node;
    const TopologyNode& topo = topology.nodes[u];
    BatchEmitter* emitters = &in_flight[u * stride];
    std::vector<RootId>* lane_roots = &in_flight_roots[u * stride];

    if (event.payload.kind == EventPayload::Kind::kFireEnd) {
      if (topo.out_queues.empty()) {
        BatchEmitter& emitter = emitters[0];
        const std::uint32_t* counts = emitter.counts();
        std::size_t out = 0;
        for (std::size_t lane = 0; lane < emitter.lanes(); ++lane) {
          const RootId root = lane_roots[0][lane];
          for (std::uint32_t c = 0; c < counts[lane]; ++c, ++out) {
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
              if (emitter.carries_items()) {
                metrics.results.push_back(std::move(emitter.items()[out]));
              } else {
                std::uint32_t fields[kMaxLaneFields] = {0, 0, 0};
                for (std::size_t f = 0; f < emitter.field_count(); ++f) {
                  fields[f] = emitter.column(f)[out];
                }
                metrics.results.push_back(stages[u].materialize
                                              ? stages[u].materialize(fields)
                                              : default_materialize(fields));
              }
            }
          }
        }
        live_items -= emitter.total();
        emitter.reset(0, 0, emitter.carries_items());
      } else {
        for (std::size_t s = 0; s < topo.out_queues.size(); ++s) {
          const std::size_t q = topo.out_queues[s];
          BatchEmitter& emitter = emitters[s];
          queues[q].append(emitter, lane_roots[s].data());
          sim::NodeMetrics& target = metrics.base.nodes[reader[q]];
          target.max_queue_length = std::max<std::uint64_t>(
              target.max_queue_length, queues[q].size());
          emitter.reset(0, 0, emitter.carries_items());
        }
      }
#if RIPPLE_OBS
      if (trace.active()) {
        trace.end(obs::Domain::kSim, static_cast<std::uint32_t>(u), topo.span,
                  now);
      }
#endif
      continue;
    }

    // ------------------------------------------------------------ FireStart
    sim::NodeMetrics& node = metrics.base.nodes[u];
    const std::vector<std::size_t>& ins = topo.in_queues;
    // Single-input nodes take what is queued; merges and synchronizers take
    // only lanes matched on every in-queue.
    std::size_t matched = queues[ins[0]].size();
    for (std::size_t j = 1; j < ins.size(); ++j) {
      matched = std::min(matched, queues[ins[j]].size());
    }
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
        trace.begin(obs::Domain::kSim, static_cast<std::uint32_t>(u),
                    topo.span, now);
      } else if (config.charge_empty_firings) {
        trace.instant(obs::Domain::kSim, static_cast<std::uint32_t>(u),
                      "empty_firing", now, topo.service_time);
      }
    }
#endif

    if (consumed > 0 || config.charge_empty_firings) {
      ++node.firings;
      if (consumed == 0) ++node.empty_firings;
      node.active_time += topo.service_time;
    }

    if (consumed > 0) {
      if (topo.role == NodeRole::kSync) {
        // Pure forwarding: stream j's lanes move straight into out-slot j.
        for (std::size_t j = 0; j < ins.size(); ++j) {
          SoaQueue& queue = queues[ins[j]];
          BatchEmitter& emitter = emitters[j];
          emitter.reset(consumed, 0, /*carries_items=*/true);
          lane_roots[j].resize(consumed);
          for (std::uint32_t k = 0; k < consumed; ++k) {
            emitter.emit_item(k, std::move(queue.item_at(k)));
            lane_roots[j][k] = queue.root_at(k);
          }
          queue.discard_front(consumed);
        }
      } else {
        // Gather the front lanes into a dense view, fire the stage once on
        // the whole vector, then retire the lanes. Roots follow the first
        // in-queue (a merge re-joins copies of the same root).
        const BatchStage& stage = stages[u];
        SoaQueue& first = queues[ins[0]];
        std::vector<RootId>& roots = lane_roots[0];
        roots.resize(consumed);
        LaneView view;
        view.lanes = consumed;
        if (stage.carries_items) {
          item_window.resize(ins.size() * consumed);
          for (std::size_t j = 0; j < ins.size(); ++j) {
            SoaQueue& queue = queues[ins[j]];
            for (std::uint32_t k = 0; k < consumed; ++k) {
              item_window[j * consumed + k] = std::move(queue.item_at(k));
            }
          }
          for (std::uint32_t k = 0; k < consumed; ++k) {
            roots[k] = first.root_at(k);
          }
          view.items = item_window.data();
          view.item_windows = ins.size();
        } else {
          const SoaQueue::FrontWindow window =
              first.gather_front(consumed, gather_scratch);
          view.field = window.field;
          std::copy(window.roots, window.roots + consumed, roots.begin());
        }
        BatchEmitter& emitter = emitters[0];
        emitter.reset(consumed, stage.output_fields, stage.carries_items);
        try {
          stage.fn(view, emitter);
        } catch (const std::exception& e) {
          return R::failure("stage_exception",
                            "stage '" + topo.name + "' threw: " + e.what());
        } catch (...) {
          return R::failure("stage_exception",
                            "stage '" + topo.name + "' threw");
        }
        for (const std::size_t q : ins) queues[q].discard_front(consumed);
        if (topo.role == NodeRole::kTee) {
          for (std::size_t s = 1; s < topo.out_queues.size(); ++s) {
            emitters[s] = emitter;
            lane_roots[s] = roots;
          }
        }
      }

      const std::uint64_t consumed_total =
          static_cast<std::uint64_t>(consumed) * ins.size();
      const std::size_t slots = std::max<std::size_t>(1, topo.out_queues.size());
      std::uint64_t produced = 0;
      for (std::size_t s = 0; s < slots; ++s) produced += emitters[s].total();
      node.items_consumed += consumed_total;
      node.items_produced += produced;
      live_items += produced;
      live_items -= consumed_total;
      events.push(now + topo.service_time, kPriorityFireEnd,
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
    // No sink output ever left (everything filtered): fall back to the last
    // arrival's timestamp, which next_arrival holds once arrivals are done.
    metrics.base.makespan =
        per_input_gaps
            ? next_arrival
            : config.input_gap * static_cast<double>(metrics.base.inputs_arrived);
  }
  return metrics;
}

}  // namespace detail

BatchStage adapt_stage(StageFn stage) {
  RIPPLE_REQUIRE(static_cast<bool>(stage), "stage functions must be callable");
  BatchStage batch;
  batch.carries_items = true;
  batch.fn = [stage = std::move(stage)](const LaneView& in, BatchEmitter& out) {
    // Lane-granular: each lane's outputs are fully emitted before the next
    // scalar call, so a throw leaves earlier lanes delivered and no partial
    // lane behind (see tests/test_runtime_batch.cpp, AdapterThrowMidBatch).
    std::vector<Item> scratch;
    for (std::size_t lane = 0; lane < in.lanes; ++lane) {
      scratch.clear();
      stage(std::move(in.items[lane]), scratch);
      for (Item& item : scratch) out.emit_item(lane, std::move(item));
    }
  };
  return batch;
}

namespace {

std::vector<BatchStage> adapt_stages(std::vector<StageFn> stages) {
  std::vector<BatchStage> adapted;
  adapted.reserve(stages.size());
  for (StageFn& stage : stages) adapted.push_back(adapt_stage(std::move(stage)));
  return adapted;
}

}  // namespace

PipelineExecutor::PipelineExecutor(sdf::PipelineSpec spec,
                                   std::vector<StageFn> stages)
    : PipelineExecutor(std::move(spec), adapt_stages(std::move(stages))) {}

PipelineExecutor::PipelineExecutor(sdf::PipelineSpec spec,
                                   std::vector<BatchStage> stages)
    : pipeline_(std::move(spec)),
      stages_(std::move(stages)),
      topology_(sim::chain_topology(pipeline_, "service")) {
  detail::validate_stages(topology_, stages_);
}

util::Result<ExecutionMetrics> PipelineExecutor::run(
    std::vector<Item> inputs, const ExecutorConfig& config) const {
  RIPPLE_REQUIRE(stages_.front().carries_items,
                 "run() needs an item-carrying stage 0; use run_batch()");
  return detail::run_vector_loop(topology_, stages_, nullptr, &inputs, config);
}

util::Result<ExecutionMetrics> PipelineExecutor::run_batch(
    const BatchInputs& inputs, const ExecutorConfig& config) const {
  RIPPLE_REQUIRE(!stages_.front().carries_items,
                 "run_batch() needs a typed stage 0; use run()");
  return detail::run_vector_loop(topology_, stages_, &inputs, nullptr, config);
}

}  // namespace ripple::runtime
