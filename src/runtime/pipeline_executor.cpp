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

using detail::EventPayload;
using detail::kPriorityFireEnd;
using detail::kPriorityFireStart;

namespace {

Item default_materialize(const std::uint32_t* fields) {
  std::array<std::uint32_t, kMaxLaneFields> tuple{};
  for (std::size_t f = 0; f < kMaxLaneFields; ++f) tuple[f] = fields[f];
  return Item(tuple);
}

/// Run-config validation. Returns the failure to propagate, or nullopt when
/// the configuration is runnable.
std::optional<util::Result<ExecutionMetrics>> validate_run_config(
    const sdf::PipelineSpec& pipeline, std::size_t input_count,
    const ExecutorConfig& config) {
  using R = util::Result<ExecutionMetrics>;
  const std::size_t n = pipeline.size();
  if (config.firing_intervals.size() != n) {
    return R::failure("bad_config", "one firing interval per node required");
  }
  for (NodeIndex i = 0; i < n; ++i) {
    if (config.firing_intervals[i] < pipeline.service_time(i) - 1e-9) {
      return R::failure("bad_config",
                        "firing interval below service time at node " +
                            std::to_string(i));
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

void validate_stages(const sdf::PipelineSpec& pipeline,
                     const std::vector<BatchStage>& stages) {
  RIPPLE_REQUIRE(stages.size() == pipeline.size(),
                 "one stage function per pipeline node");
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const BatchStage& stage = stages[i];
    RIPPLE_REQUIRE(static_cast<bool>(stage.fn),
                   "stage functions must be callable");
    RIPPLE_REQUIRE(stage.input_fields <= kMaxLaneFields &&
                       stage.output_fields <= kMaxLaneFields,
                   "stage arity exceeds the lane register file");
    if (i > 0) {
      RIPPLE_REQUIRE(stages[i].carries_items == stages[i - 1].carries_items,
                     "adjacent stages must share a lane representation");
      RIPPLE_REQUIRE(stages[i].carries_items ||
                         stages[i].input_fields == stages[i - 1].output_fields,
                     "stage input arity must match predecessor output arity");
    }
  }
}

}  // namespace

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

PipelineExecutor::PipelineExecutor(sdf::PipelineSpec spec,
                                   std::vector<StageFn> stages)
    : pipeline_(std::move(spec)) {
  RIPPLE_REQUIRE(stages.size() == pipeline_.size(),
                 "one stage function per pipeline node");
  stages_.reserve(stages.size());
  for (StageFn& stage : stages) stages_.push_back(adapt_stage(std::move(stage)));
  validate_stages(pipeline_, stages_);
}

PipelineExecutor::PipelineExecutor(sdf::PipelineSpec spec,
                                   std::vector<BatchStage> stages)
    : pipeline_(std::move(spec)), stages_(std::move(stages)) {
  validate_stages(pipeline_, stages_);
}

util::Result<ExecutionMetrics> PipelineExecutor::run(
    std::vector<Item> inputs, const ExecutorConfig& config) const {
  RIPPLE_REQUIRE(stages_.front().carries_items,
                 "run() needs an item-carrying stage 0; use run_batch()");
  return execute(nullptr, &inputs, config);
}

util::Result<ExecutionMetrics> PipelineExecutor::run_batch(
    const BatchInputs& inputs, const ExecutorConfig& config) const {
  RIPPLE_REQUIRE(!stages_.front().carries_items,
                 "run_batch() needs a typed stage 0; use run()");
  return execute(&inputs, nullptr, config);
}

util::Result<ExecutionMetrics> PipelineExecutor::execute(
    const BatchInputs* typed_inputs, std::vector<Item>* item_inputs,
    const ExecutorConfig& config) const {
  using R = util::Result<ExecutionMetrics>;
  const std::size_t n = pipeline_.size();
  const std::size_t input_count =
      typed_inputs != nullptr ? typed_inputs->size() : item_inputs->size();
  if (auto invalid = validate_run_config(pipeline_, input_count, config)) {
    return *std::move(invalid);
  }
  const bool per_input_gaps = !config.input_gaps.empty();

  const std::uint32_t v = pipeline_.simd_width();

  ExecutionMetrics metrics;
  metrics.base.nodes.resize(n);
  metrics.base.vector_width = v;
  metrics.base.sharing_actors = n;
  metrics.base.arm_latency_histogram(config.deadline);

  // Queue i feeds stage i; its representation is what stage i consumes.
  std::vector<SoaQueue> queues(n);
  for (NodeIndex i = 0; i < n; ++i) {
    queues[i].configure(stages_[i].input_fields, stages_[i].carries_items);
    queues[i].reserve(2 * v);
  }
  // Per-node in-flight firing: outputs staged until the fire-end delivers
  // them, plus the consumed lanes' root ids for root propagation.
  std::vector<BatchEmitter> in_flight(n);
  std::vector<std::vector<RootId>> in_flight_roots(n);
  for (auto& roots : in_flight_roots) roots.reserve(v);

  std::vector<Cycles> root_arrival(input_count, 0.0);
  std::vector<bool> root_missed(input_count, false);

  std::uint64_t live_items = 0;
  std::size_t next_input = 0;
  // Arrival k's timestamp accumulates gap by gap (never k * gap) so the
  // doubles match the seed engine's event-chained arrival times bit for bit.
  Cycles next_arrival =
      per_input_gaps ? config.input_gaps[0] : config.input_gap;
  bool arrivals_done = false;

  // Lazily materialize every arrival with time <= now into queue 0. Safe to
  // run at any event boundary: arrivals only touch the source queue, which
  // no fire-end writes, so their seed-engine ordering against same-time
  // fire-ends is immaterial; fire-starts (which do read queue 0) always
  // materialize first.
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
        queues[0].push_fields(fields, root);
      } else {
        queues[0].push_item(std::move((*item_inputs)[next_input]), root);
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
    metrics.base.nodes[0].max_queue_length = std::max<std::uint64_t>(
        metrics.base.nodes[0].max_queue_length, queues[0].size());
  };

  sim::EventQueue<EventPayload> events;
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

  SoaQueue::GatherScratch gather_scratch;
  std::vector<Item> item_window;  // dense per-firing item lanes
  std::uint64_t processed = 0;
  while (!events.empty() && processed < config.max_events) {
    const auto event = events.pop();
    ++processed;
    const Cycles now = event.time;
    materialize_arrivals(now);

    switch (event.payload.kind) {
      case EventPayload::Kind::kFireStart: {
        const NodeIndex i = event.payload.node;
        sim::NodeMetrics& node = metrics.base.nodes[i];
        const BatchStage& stage = stages_[i];
        SoaQueue& queue = queues[i];
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
          // Gather the front lanes into a dense view, fire the stage once
          // on the whole vector, then retire the lanes.
          LaneView view;
          view.lanes = consumed;
          std::vector<RootId>& lane_roots = in_flight_roots[i];
          lane_roots.resize(consumed);
          if (stage.carries_items) {
            item_window.resize(consumed);
            for (std::uint32_t k = 0; k < consumed; ++k) {
              item_window[k] = std::move(queue.item_at(k));
              lane_roots[k] = queue.root_at(k);
            }
            view.items = item_window.data();
          } else {
            const SoaQueue::FrontWindow window =
                queue.gather_front(consumed, gather_scratch);
            view.field = window.field;
            std::copy(window.roots, window.roots + consumed,
                      lane_roots.begin());
          }
          BatchEmitter& emitter = in_flight[i];
          emitter.reset(consumed, stage.output_fields, stage.carries_items);
          try {
            stage.fn(view, emitter);
          } catch (const std::exception& e) {
            return R::failure(
                "stage_exception",
                "stage '" + pipeline_.node(i).name + "' threw: " + e.what());
          } catch (...) {
            return R::failure("stage_exception", "stage '" +
                                                     pipeline_.node(i).name +
                                                     "' threw");
          }
          queue.discard_front(consumed);
          node.items_produced += emitter.total();
          live_items += emitter.total();
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
        BatchEmitter& emitter = in_flight[i];
        const std::vector<RootId>& lane_roots = in_flight_roots[i];
        const bool is_sink = (i + 1 == n);
        if (is_sink) {
          const std::uint32_t* counts = emitter.counts();
          std::size_t out = 0;
          for (std::size_t lane = 0; lane < emitter.lanes(); ++lane) {
            const RootId root = lane_roots[lane];
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
                  trace.instant(obs::Domain::kSim,
                                static_cast<std::uint32_t>(i), "deadline_miss",
                                now, config.deadline - latency);
                }
#endif
              }
              metrics.base.makespan = std::max(metrics.base.makespan, now);
              if (metrics.results.size() < config.max_collected_results) {
                if (emitter.carries_items()) {
                  metrics.results.push_back(std::move(emitter.items()[out]));
                } else {
                  std::uint32_t fields[kMaxLaneFields] = {0, 0, 0};
                  for (std::size_t f = 0; f < stages_[i].output_fields; ++f) {
                    fields[f] = emitter.column(f)[out];
                  }
                  metrics.results.push_back(
                      stages_[i].materialize ? stages_[i].materialize(fields)
                                             : default_materialize(fields));
                }
              }
            }
          }
          live_items -= emitter.total();
        } else {
          SoaQueue& next_queue = queues[i + 1];
          next_queue.append(emitter, lane_roots.data());
          metrics.base.nodes[i + 1].max_queue_length = std::max<std::uint64_t>(
              metrics.base.nodes[i + 1].max_queue_length, next_queue.size());
        }
        emitter.reset(0, stages_[i].output_fields, stages_[i].carries_items);
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
    // No sink output ever left (everything filtered): fall back to the last
    // arrival's timestamp, which next_arrival holds once arrivals are done.
    metrics.base.makespan =
        per_input_gaps
            ? next_arrival
            : config.input_gap * static_cast<double>(metrics.base.inputs_arrived);
  }
  return metrics;
}

}  // namespace ripple::runtime
