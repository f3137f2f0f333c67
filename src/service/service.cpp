#include "service/service.hpp"

#include <algorithm>
#include <any>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "util/assert.hpp"

#if RIPPLE_OBS
#include "obs/names.hpp"
#include "obs/obs.hpp"
#endif

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace ripple::service {

namespace {

control::Controller make_controller(const sdf::PipelineSpec& pipeline,
                                    const ServiceConfig& config) {
  core::EnforcedWaitsConfig waits;
  if (config.b.empty()) {
    waits = core::EnforcedWaitsConfig::optimistic(pipeline);
  } else {
    waits.b = config.b;
  }
  return control::Controller(pipeline, std::move(waits), config.deadline,
                             config.initial_tau0, config.controller);
}

void validate_config(const ServiceConfig& config) {
  RIPPLE_REQUIRE(config.session_capacity > 0,
                 "session capacity must be positive");
  RIPPLE_REQUIRE(config.batch_size > 0, "batch size must be positive");
  RIPPLE_REQUIRE(config.cycles_per_us > 0.0, "cycles_per_us must be positive");
  RIPPLE_REQUIRE(config.shard_queue_capacity > 0,
                 "shard queue capacity must be positive");
  RIPPLE_REQUIRE(config.exec_threads == 1,
                 "exec_threads must be 1 (each shard executes sequentially)");
}

}  // namespace

PipelineService::Shard::Shard(std::size_t shard_index,
                              const sdf::PipelineSpec& pipeline,
                              std::vector<runtime::StageFn> stages,
                              const ServiceConfig& config)
    : index(shard_index),
      executor(pipeline, std::move(stages)),
      controller(make_controller(pipeline, config)),
      queue(config.shard_queue_capacity),
      // Until the first control tick, admit every session the initial plan
      // can take. A shedding initial plan starts with the gate closed to new
      // sessions; the first tick opens it to the admitted count.
      admitted_watermark(controller.plan()->shedding ? 0 : UINT64_MAX) {
  drain_scratch.reserve(config.batch_size);
}

PipelineService::PipelineService(sdf::PipelineSpec pipeline,
                                 std::vector<runtime::StageFn> stages,
                                 ServiceConfig config)
    : pipeline_(std::move(pipeline)),
      config_(std::move(config)),
      ledger_(config_.shards),
      epoch_time_(std::chrono::steady_clock::now()) {
  RIPPLE_REQUIRE(config_.shards == 1,
                 "shards > 1 needs the StageFactory constructor — stateful "
                 "stages cannot be shared across shard workers");
  validate_config(config_);
  shards_.push_back(
      std::make_unique<Shard>(0, pipeline_, std::move(stages), config_));
}

PipelineService::PipelineService(sdf::PipelineSpec pipeline,
                                 StageFactory stages, ServiceConfig config)
    : pipeline_(std::move(pipeline)),
      config_(std::move(config)),
      ledger_(config_.shards),
      epoch_time_(std::chrono::steady_clock::now()) {
  RIPPLE_REQUIRE(stages != nullptr, "null stage factory");
  validate_config(config_);
  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    shards_.push_back(
        std::make_unique<Shard>(s, pipeline_, stages(s), config_));
  }
}

PipelineService::~PipelineService() { stop(); }

Cycles PipelineService::now() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_time_;
  const double us =
      std::chrono::duration<double, std::micro>(elapsed).count();
  return us * config_.cycles_per_us;
}

std::size_t PipelineService::shard_of(SessionId id) const noexcept {
  if (shards_.size() == 1) return 0;
  // splitmix64 finalizer: cheap, well-mixed placement for sequential ids.
  std::uint64_t x = id;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return static_cast<std::size_t>(x % shards_.size());
}

SessionId PipelineService::open_session() {
  const SessionId id =
      next_session_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  Shard& shard = *shards_[shard_of(id)];
  auto session = std::make_unique<Session>();
  session->open_seq = id;
  {
    std::lock_guard<std::mutex> lock(shard.sessions_mutex);
    shard.sessions.emplace(id, std::move(session));
  }
  shard.open_count.fetch_add(1, std::memory_order_relaxed);
  if (ingest_observer_ != nullptr) ingest_observer_->on_session_open(id);
  return id;
}

bool PipelineService::close_session(SessionId id) {
  Shard& shard = *shards_[shard_of(id)];
  {
    std::lock_guard<std::mutex> lock(shard.sessions_mutex);
    auto it = shard.sessions.find(id);
    if (it == shard.sessions.end() || !it->second->open) return false;
    it->second->open = false;
  }
  shard.open_count.fetch_sub(1, std::memory_order_relaxed);
  if (ingest_observer_ != nullptr) ingest_observer_->on_session_close(id);
  return true;
}

SubmitOutcome PipelineService::submit(SessionId id,
                                      std::vector<runtime::Item> items) {
  Shard& shard = *shards_[shard_of(id)];
  Session* session = nullptr;
  {
    std::lock_guard<std::mutex> lock(shard.sessions_mutex);
    auto it = shard.sessions.find(id);
    if (it == shard.sessions.end() || !it->second->open) {
      throw std::logic_error("submit on unknown or closed session");
    }
    session = it->second.get();
  }

  SubmitOutcome outcome;
  submitted_.fetch_add(items.size(), std::memory_order_relaxed);

  if (session->open_seq >
      shard.admitted_watermark.load(std::memory_order_relaxed)) {
    outcome.shed = items.size();
    shed_.fetch_add(items.size(), std::memory_order_relaxed);
    {
      // The items are rejected but their arrival times still inform the rate
      // estimator (capped so a runaway producer cannot grow this unbounded).
      std::lock_guard<std::mutex> lock(shard.shed_mutex);
      const Cycles arrival = now();
      for (std::size_t k = 0;
           k < items.size() && shard.shed_arrivals.size() < 65536; ++k) {
        shard.shed_arrivals.push_back(arrival);
      }
    }
    // Coalesced wakeup: notify only on the empty -> non-empty transition;
    // an already-signalled worker re-checks the count before sleeping.
    if (shard.shed_since_drain.fetch_add(items.size(),
                                         std::memory_order_relaxed) == 0) {
      wake(shard);
    }
#if RIPPLE_OBS
    if (obs::enabled()) {
      obs::Registry::global().counter("service.shed")->add(items.size());
    }
#endif
    return outcome;
  }

  const Cycles arrival = now();
  for (auto& item : items) {
    // fetch_add-then-check: previous values are unique, so at most
    // session_capacity items are ever in flight — the same bound the old
    // per-session mutex enforced, without the lock.
    if (session->inflight.fetch_add(1, std::memory_order_relaxed) >=
        config_.session_capacity) {
      session->inflight.fetch_sub(1, std::memory_order_relaxed);
      ++outcome.rejected_backpressure;
      continue;
    }
    Pending pending;
    pending.item = std::move(item);
    pending.arrival = arrival;
    pending.seq = submit_seq_.fetch_add(1, std::memory_order_relaxed);
    pending.session = session;
    if (!shard.queue.try_push(std::move(pending))) {
      // Shard ring full: bounded ingest memory. Counted, never dropped.
      session->inflight.fetch_sub(1, std::memory_order_relaxed);
      ++outcome.rejected_backpressure;
      continue;
    }
    ++outcome.accepted;
  }
  accepted_.fetch_add(outcome.accepted, std::memory_order_relaxed);
  rejected_backpressure_.fetch_add(outcome.rejected_backpressure,
                                   std::memory_order_relaxed);
  if (outcome.accepted > 0) {
    // Coalesced wakeup (see above): one notify per idle period, not one per
    // submission. Only the worker lowers the count, and it never sleeps
    // while the count is non-zero, so the first rise from zero after it
    // goes to sleep is the one that must (and does) wake it.
    if (shard.pending_count.fetch_add(outcome.accepted,
                                      std::memory_order_relaxed) == 0) {
      wake(shard);
    }
#if RIPPLE_OBS
    else if (obs::enabled()) {
      obs::Registry::global().counter("service.notify.coalesced")->add(1);
    }
#endif
  }
  return outcome;
}

void PipelineService::start() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (running_) return;
  stop_requested_.store(false, std::memory_order_relaxed);
  running_ = true;
  for (auto& shard : shards_) {
    shard->worker = std::thread([this, raw = shard.get()] {
      worker_loop(*raw);
    });
  }
}

void PipelineService::stop() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    if (!running_) return;
    stop_requested_.store(true, std::memory_order_relaxed);
  }
  for (auto& shard : shards_) wake(*shard);
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  running_ = false;
}

void PipelineService::wake(Shard& shard) {
  // The notifier's state change (a count rising from zero, or the stop flag)
  // is already stored. Locking the mutex orders the notify after the worker
  // either re-checks its predicate — and sees the change — or is blocked in
  // wait(), which releases the mutex only once the thread is waiting.
  { std::lock_guard<std::mutex> lock(shard.worker_mutex); }
  shard.worker_cv.notify_one();
}

void PipelineService::worker_loop(Shard& shard) {
#ifdef __linux__
  if (config_.pin_workers) {
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<int>(shard.index % cores), &set);
    pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  }
#endif
#if RIPPLE_OBS
  if (obs::enabled()) {
    obs::TraceWriter trace = obs::TraceWriter::for_current_thread();
    if (trace.active()) {
      obs::TraceSession::global().set_track_name(
          obs::Domain::kHost, trace.track(),
          "service.shard" + std::to_string(shard.index));
    }
  }
#endif
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(shard.worker_mutex);
      shard.worker_cv.wait(lock, [&] {
        return stop_requested_.load(std::memory_order_relaxed) ||
               shard.pending_count.load(std::memory_order_relaxed) > 0 ||
               shard.shed_since_drain.load(std::memory_order_relaxed) > 0;
      });
      if (stop_requested_.load(std::memory_order_relaxed) &&
          shard.pending_count.load(std::memory_order_relaxed) == 0) {
        return;
      }
    }
    drain_shard(shard);
  }
}

void PipelineService::set_ingest_observer(IngestObserver* observer) {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  RIPPLE_REQUIRE(!running_,
                 "set_ingest_observer while the workers are running");
  RIPPLE_REQUIRE(observer == nullptr || shards_.size() == 1,
                 "the ingest observer requires shards == 1 — drain records "
                 "carry no shard identity, so multi-shard journals would not "
                 "replay deterministically");
  ingest_observer_ = observer;
}

std::size_t PipelineService::drain_once() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    RIPPLE_REQUIRE(!running_, "drain_once() while the workers are running");
  }
  std::size_t total = 0;
  for (auto& shard : shards_) total += drain_shard(*shard);
  return total;
}

std::size_t PipelineService::drain_shard(Shard& shard) {
  // Pop everything currently published in the shard's MPSC ring — O(items),
  // independent of how many sessions are open. Popping is also the point
  // where a session's in-flight budget is released (the bound the submit
  // path enforces), matching the old drain-frees-capacity semantics.
  shard.drain_scratch.clear();
  {
    Pending pending;
    while (shard.queue.try_pop(pending)) {
      pending.session->inflight.fetch_sub(1, std::memory_order_relaxed);
      shard.drain_scratch.push_back(std::move(pending));
    }
  }
  // Reset the shed count *before* taking the shed arrivals: a shed submit
  // that lands after the swap then raises the count from zero and wakes the
  // worker. Resetting after the swap could erase that submit's count and
  // leave its arrivals pending while the worker sleeps.
  shard.shed_since_drain.store(0, std::memory_order_relaxed);
  std::vector<Cycles> shed_times;
  {
    std::lock_guard<std::mutex> lock(shard.shed_mutex);
    shed_times.swap(shard.shed_arrivals);
  }
  if (shard.drain_scratch.empty() && shed_times.empty()) return 0;
  shard.pending_count.fetch_sub(shard.drain_scratch.size(),
                                std::memory_order_relaxed);
  shard.last_drain_depth.store(shard.drain_scratch.size(),
                               std::memory_order_relaxed);

  // The ring preserves enqueue order, but concurrent producers interleave;
  // (arrival, seq) is the same total order the old per-session merge sorted
  // into, so the shards=1 path stays bit-identical.
  std::sort(shard.drain_scratch.begin(), shard.drain_scratch.end(),
            [](const Pending& a, const Pending& b) {
              if (a.arrival != b.arrival) return a.arrival < b.arrival;
              return a.seq < b.seq;
            });

#if RIPPLE_OBS
  {
    obs::TraceWriter trace = obs::TraceWriter::for_current_thread();
    if (trace.active()) {
      trace.counter(obs::Domain::kHost, trace.track(),
                    "service.shard.queue_depth",
                    obs::TraceSession::global().host_now_us(),
                    static_cast<double>(shard.drain_scratch.size()));
    }
  }
#endif

  // Journal the drain before any controller mutation: the observer sees the
  // admitted batch in executed order plus the raw shed timestamps, and the
  // controller state at this call is exactly "all prior records applied" —
  // the snapshot boundary the recovery path relies on.
  if (ingest_observer_ != nullptr) {
    shard.observer_scratch.clear();
    shard.observer_scratch.reserve(shard.drain_scratch.size());
    for (const Pending& pending : shard.drain_scratch) {
      ArrivalRecord record;
      record.session = pending.session->open_seq;
      record.seq = pending.seq;
      record.arrival = pending.arrival;
      if (const auto* value =
              std::any_cast<std::uint64_t>(&pending.item)) {
        record.payload = *value;
        record.has_payload = true;
      }
      shard.observer_scratch.push_back(record);
    }
    ingest_observer_->on_drain(shard.observer_scratch, shed_times);
  }

  // Feed the controller the *offered* stream: admitted arrivals merged with
  // the timestamps of shed submissions. Estimating from admitted arrivals
  // alone would hide exactly the overload that triggered shedding — and a
  // fully shed shard would never see the load drop.
  std::vector<Cycles>& arrivals = shard.arrival_scratch;
  arrivals.clear();
  for (const Pending& pending : shard.drain_scratch) {
    arrivals.push_back(pending.arrival);
  }
  arrivals.insert(arrivals.end(), shed_times.begin(), shed_times.end());
  std::sort(arrivals.begin(), arrivals.end());
  shard.last_arrival =
      shard.controller.observe_arrivals(arrivals, shard.last_arrival);

  const control::ControlDecision decision = shard.controller.tick();
#if RIPPLE_OBS
  if (decision.shedding) {
    obs::TraceWriter trace = obs::TraceWriter::for_current_thread();
    if (trace.active()) {
      trace.instant(obs::Domain::kHost, trace.track(), "control.shed",
                    obs::TraceSession::global().host_now_us(), 0.0);
    }
  }
#endif
  publish_load(shard);
  const std::size_t admitted = refresh_watermark(shard);
#if RIPPLE_OBS
  {
    obs::TraceWriter trace = obs::TraceWriter::for_current_thread();
    if (trace.active()) {
      trace.counter(obs::Domain::kHost, trace.track(),
                    "service.shard.admitted",
                    obs::TraceSession::global().host_now_us(),
                    static_cast<double>(admitted));
    }
  }
#else
  (void)admitted;
#endif

  const std::size_t total = shard.drain_scratch.size();
  std::size_t offset = 0;
  while (offset < total) {
    const std::size_t n = std::min(config_.batch_size, total - offset);
    shard.batch_scratch.assign(
        std::make_move_iterator(shard.drain_scratch.begin() +
                                static_cast<std::ptrdiff_t>(offset)),
        std::make_move_iterator(shard.drain_scratch.begin() +
                                static_cast<std::ptrdiff_t>(offset + n)));
    execute_batch(shard, shard.batch_scratch);
    offset += n;
  }
  shard.drain_scratch.clear();
  return total;
}

void PipelineService::execute_batch(Shard& shard,
                                    std::vector<Pending>& batch) {
  const control::PlanPtr plan = shard.controller.plan();

  runtime::ExecutorConfig config;
  config.firing_intervals = plan->schedule.firing_intervals;
  config.deadline = config_.deadline;
  config.max_collected_results = 0;
  config.input_gaps.reserve(batch.size());
  Cycles previous = batch.front().arrival;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Cycles gap =
        i == 0 ? plan->planned_tau0 : batch[i].arrival - previous;
    config.input_gaps.push_back(std::max(gap, Cycles(1e-9)));
    previous = batch[i].arrival;
  }

  std::vector<runtime::Item> inputs;
  inputs.reserve(batch.size());
  for (Pending& pending : batch) inputs.push_back(std::move(pending.item));

#if RIPPLE_OBS
  obs::TraceWriter trace = obs::TraceWriter::for_current_thread();
  if (trace.active()) {
    trace.begin(obs::Domain::kHost, trace.track(), "service.batch",
                obs::TraceSession::global().host_now_us());
  }
#endif
  auto result = shard.executor.run(std::move(inputs), config);
#if RIPPLE_OBS
  if (trace.active()) {
    trace.end(obs::Domain::kHost, trace.track(), "service.batch",
              obs::TraceSession::global().host_now_us());
  }
#endif

  shard.batches.fetch_add(1, std::memory_order_relaxed);
  shard.executed_items.fetch_add(batch.size(), std::memory_order_relaxed);
  if (!result.ok()) {
    // A stage threw or the event budget ran out: the items are spent. Count
    // them by failure code so the loss is visible, then keep serving. The
    // service always hands the executor a well-formed config, so these are
    // the only two codes a batch can fail with.
    const bool budget = result.error().code == "event_budget";
    (budget ? shard.failed_event_budget : shard.failed_stage_exception)
        .fetch_add(1, std::memory_order_relaxed);
    shard.failed_items.fetch_add(batch.size(), std::memory_order_relaxed);
#if RIPPLE_OBS
    if (obs::enabled()) {
      obs::Registry& registry = obs::Registry::global();
      registry.counter("service.failed_batches")->add(1);
      registry
          .counter(budget ? obs::names::kFailedBatchesEventBudget
                          : obs::names::kFailedBatchesStageException)
          ->add(1);
    }
    if (trace.active()) {
      trace.counter(obs::Domain::kHost, trace.track(),
                    "service.failed_batches",
                    obs::TraceSession::global().host_now_us(),
                    static_cast<double>(
                        shard.failed_stage_exception.load(
                            std::memory_order_relaxed) +
                        shard.failed_event_budget.load(
                            std::memory_order_relaxed)));
    }
#endif
    return;
  }
  const sim::TrialMetrics& metrics = result.value().base;
  sink_outputs_.fetch_add(metrics.sink_outputs, std::memory_order_relaxed);
  deadline_misses_.fetch_add(metrics.inputs_missed, std::memory_order_relaxed);
  if (metrics.sink_outputs > 0) {
    const Cycles worst = metrics.output_latency.max();
    shard.controller.observe_worst_latency(worst);
    shard.worst_latency_interval =
        std::max(shard.worst_latency_interval, worst);
    if (ingest_observer_ != nullptr) {
      ingest_observer_->on_batch_latency(worst);
    }
  }
}

void PipelineService::publish_load(Shard& shard) {
  control::ShardLoad load;
  load.open_sessions = shard.open_count.load(std::memory_order_relaxed);
  const Cycles target = shard.controller.admission_target_tau0();
  load.offered_rate = target > 0.0 ? 1.0 / target : 0.0;
  const Cycles floor = shard.controller.replanner().floor_tau0();
  load.feasible_rate = floor > 0.0 ? 1.0 / floor : 0.0;
  load.queue_depth = shard.last_drain_depth.load(std::memory_order_relaxed);
  load.worst_latency = shard.worst_latency_interval;
  load.deadline = config_.deadline;
  shard.worst_latency_interval = 0.0;
  ledger_.publish(shard.index, load);
}

std::size_t PipelineService::refresh_watermark(Shard& shard) {
  const std::size_t open = shard.open_count.load(std::memory_order_relaxed);
  const std::size_t local = shard.controller.admitted_sessions(open);
  const std::size_t admitted = ledger_.apportion(shard.index, local);
  std::uint64_t watermark;
  if (admitted >= open) {
    // Not shedding: new sessions admitted on arrival, and — the steady-state
    // fast path — no O(open sessions) scan.
    watermark = UINT64_MAX;
  } else if (admitted == 0) {
    watermark = 0;
  } else {
    // Shedding: keep the oldest `admitted` sessions, shed everything newer.
    // Map iteration order == admission order, so the collected seqs are
    // already sorted.
    std::vector<std::uint64_t> open_seqs;
    std::lock_guard<std::mutex> lock(shard.sessions_mutex);
    open_seqs.reserve(shard.sessions.size());
    for (auto& [id, session] : shard.sessions) {
      if (session->open) open_seqs.push_back(session->open_seq);
    }
    watermark = admitted >= open_seqs.size() ? UINT64_MAX
                                             : open_seqs[admitted - 1];
  }
  shard.admitted_watermark.store(watermark, std::memory_order_relaxed);
  return admitted;
}

ServiceStats PipelineService::stats() const {
  ServiceStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.rejected_backpressure =
      rejected_backpressure_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.sink_outputs = sink_outputs_.load(std::memory_order_relaxed);
  stats.deadline_misses = deadline_misses_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    stats.batches += shard->batches.load(std::memory_order_relaxed);
    stats.executed_items +=
        shard->executed_items.load(std::memory_order_relaxed);
    stats.failed_stage_exception +=
        shard->failed_stage_exception.load(std::memory_order_relaxed);
    stats.failed_event_budget +=
        shard->failed_event_budget.load(std::memory_order_relaxed);
    stats.failed_items += shard->failed_items.load(std::memory_order_relaxed);
    stats.open_sessions += shard->open_count.load(std::memory_order_relaxed);
  }
  stats.failed_batches =
      stats.failed_stage_exception + stats.failed_event_budget;
  stats.plan_epoch = shards_.front()->controller.epoch();
  return stats;
}

ShardStats PipelineService::shard_stats(std::size_t shard) const {
  RIPPLE_REQUIRE(shard < shards_.size(), "shard_stats: shard out of range");
  const Shard& s = *shards_[shard];
  ShardStats stats;
  stats.shard = shard;
  stats.open_sessions = s.open_count.load(std::memory_order_relaxed);
  stats.batches = s.batches.load(std::memory_order_relaxed);
  stats.executed_items = s.executed_items.load(std::memory_order_relaxed);
  stats.failed_stage_exception =
      s.failed_stage_exception.load(std::memory_order_relaxed);
  stats.failed_event_budget =
      s.failed_event_budget.load(std::memory_order_relaxed);
  stats.failed_batches =
      stats.failed_stage_exception + stats.failed_event_budget;
  stats.failed_items = s.failed_items.load(std::memory_order_relaxed);
  stats.plan_epoch = s.controller.epoch();
  stats.queue_depth = s.last_drain_depth.load(std::memory_order_relaxed);
  const control::ShardLoad load = ledger_.load(shard);
  stats.offered_rate = load.offered_rate;
  stats.worst_latency = load.worst_latency;
  stats.admitted_watermark =
      s.admitted_watermark.load(std::memory_order_relaxed);
  return stats;
}

control::PlanPtr PipelineService::plan(std::size_t shard) const {
  RIPPLE_REQUIRE(shard < shards_.size(), "plan: shard out of range");
  return shards_[shard]->controller.plan();
}

const control::Controller& PipelineService::controller(
    std::size_t shard) const {
  RIPPLE_REQUIRE(shard < shards_.size(), "controller: shard out of range");
  return shards_[shard]->controller;
}

std::vector<runtime::StageFn> synthetic_stages(const sdf::PipelineSpec& spec) {
  std::vector<runtime::StageFn> stages;
  stages.reserve(spec.size());
  for (std::size_t i = 0; i < spec.size(); ++i) {
    if (i + 1 == spec.size()) {
      stages.push_back([](runtime::Item&& input,
                          std::vector<runtime::Item>& outputs) {
        outputs.push_back(std::move(input));
      });
      continue;
    }
    // Fixed-point (32.32) gain accumulator: after n calls exactly
    // floor(n * gain) items have been emitted, and integer gains emit the
    // same count on every call.
    const auto gain_fp = static_cast<std::uint64_t>(
        spec.mean_gain(i) * 4294967296.0);
    auto accumulator = std::make_shared<std::uint64_t>(0);
    stages.push_back([gain_fp, accumulator](runtime::Item&& input,
                                            std::vector<runtime::Item>& outputs) {
      const std::uint64_t prev = *accumulator;
      *accumulator += gain_fp;
      const std::size_t emit =
          static_cast<std::size_t>(((prev + gain_fp) >> 32) - (prev >> 32));
      for (std::size_t k = 0; k < emit; ++k) outputs.push_back(input);
    });
  }
  return stages;
}

StageFactory synthetic_stage_factory(const sdf::PipelineSpec& spec) {
  return [spec](std::size_t) { return synthetic_stages(spec); };
}

}  // namespace ripple::service
