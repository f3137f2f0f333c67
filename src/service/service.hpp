// Live pipeline service: concurrent producer sessions feeding the batch
// executor through lock-free sharded ingest, with the control loop adapting
// each shard's wait schedule as the offered rate drifts.
//
// Shard model (the unit of scaling): the service owns N shards, each with
// its own PipelineExecutor, its own Controller (estimator + replanner +
// PlanStore epoch), a bounded lock-free MPSC ingest queue
// (util/mpsc_queue.hpp), its own drain scratch, and — when started — its
// own worker thread (optionally pinned to a core). Sessions hash to a shard
// at open time and stay there, so a shard worker only ever touches its own
// state plus the service-wide counters (relaxed atomics) and the global
// AdmissionLedger (relaxed slot writes).
//
// Thread model (everything TSan-checked by the multi-shard soak + CI job):
//
//   * Producer threads call open_session / submit / close_session. submit
//     resolves the session's shard, stamps each item with a virtual-cycle
//     arrival time, applies admission control (a lock-free read of the
//     shard's watermark: sessions opened after it are being shed) and
//     backpressure (an atomic per-session in-flight count bounded by
//     session_capacity, plus the bounded shard queue itself), and enqueues
//     Pending records directly into the shard's MPSC ring — no per-session
//     mutex, no ring scan on the drain side. Worker wakeups are coalesced:
//     the condition variable is only notified on the shard's empty ->
//     non-empty transition, so a hot submit path never pays one notify per
//     batch while the worker is already awake.
//   * Each shard worker sleeps on its condition variable with no timeout
//     until it has work: an idle shard costs no CPU. Every notifier takes
//     the worker mutex for an instant before notifying, which closes the
//     window between the worker's predicate check and its block (see
//     PipelineService::wake).
//   * Each shard worker drains its MPSC queue (O(items), independent of how
//     many sessions are open), sorts the drained batch into arrival order,
//     feeds the offered arrival stamps of its substream to its controller
//     (one estimator group per run of equal stamps), ticks it (possibly
//     re-solving and hot-swapping the shard's plan), publishes its load to
//     the AdmissionLedger, refreshes its admission watermark through the
//     ledger's global clamp, and executes the batch through its own
//     PipelineExecutor under the plan loaded at batch start — a plan swap
//     mid-batch never affects a batch already running.
//   * Counters are relaxed atomics; plan pointers are per-shard PlanStore
//     snapshots. No lock is ever held across an executor run.
//
// Shedding policy: each shard's controller assumes symmetric sessions and
// admits the oldest k of its open sessions such that k/S_shard of the
// shard's offered rate fits under the feasibility floor; the AdmissionLedger
// then clamps k against the aggregate offered/feasible rates so hash
// imbalance cannot leave one shard drowning while others coast
// (control/admission.hpp). Rejected-by-shedding submissions are counted
// (`shed`), never silently dropped, and mirror to the `service.shed` metric
// on instrumented builds — across every shard.
//
// Determinism contract: with shards = 1 the service is bit-identical to the
// pre-sharding single-worker path — one controller, identity admission
// apportioning, the same (arrival, seq) drain order, and the same tick
// cadence — which is what the golden drain_once/replay tests pin down.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "control/admission.hpp"
#include "control/controller.hpp"
#include "runtime/pipeline_executor.hpp"
#include "sdf/pipeline.hpp"
#include "util/mpsc_queue.hpp"
#include "util/types.hpp"

namespace ripple::service {

using SessionId = std::uint64_t;

/// Builds one shard's stage set. Each shard owns a private executor, so
/// stateful stages (like synthetic_stages' gain accumulators) must be
/// instantiated per shard — sharing one closure set across shard workers
/// would race.
using StageFactory =
    std::function<std::vector<runtime::StageFn>(std::size_t shard)>;

/// One admitted arrival as the shard worker drains it, in executed order.
struct ArrivalRecord {
  std::uint64_t session = 0;  ///< owning session's id (== its open_seq)
  std::uint64_t seq = 0;      ///< global submit sequence (drain tie-break)
  Cycles arrival = 0.0;       ///< virtual-cycle arrival stamp
  std::uint64_t payload = 0;  ///< the item payload when it is a uint64
  bool has_payload = false;   ///< false for non-uint64 item types
};

/// Hook onto the admitted ingest stream — the attachment point for the
/// arrival journal (net/journal.hpp). Calls mirror exactly the sequence of
/// controller mutations the drain loop performs, which is what makes a
/// journal replay bit-identical:
///
///   on_drain(admitted, shed)  — once per non-empty drain, *before* the
///       worker feeds the merged arrival stamps to the controller and ticks
///       it.
///       `admitted` is the drained batch in executed (arrival, seq) order;
///       `shed` is the raw shed-arrival timestamps swapped out this drain.
///   on_batch_latency(worst)   — after each executed batch that produced
///       sink outputs, in execution order (these feed the *next* tick).
///   on_session_open/close     — admission bookkeeping (any thread).
///
/// Threading: on_drain/on_batch_latency come from the shard worker (or the
/// drain_once caller); on_session_open/close from whatever thread opens or
/// closes the session. The observer synchronizes internally.
class IngestObserver {
 public:
  virtual ~IngestObserver() = default;
  virtual void on_session_open(SessionId id) = 0;
  virtual void on_session_close(SessionId id) = 0;
  virtual void on_drain(const std::vector<ArrivalRecord>& admitted,
                        const std::vector<Cycles>& shed_arrivals) = 0;
  virtual void on_batch_latency(Cycles worst) = 0;
};

struct ServiceConfig {
  Cycles deadline = 0.0;       ///< end-to-end deadline D (> 0 required)
  Cycles initial_tau0 = 0.0;   ///< prior inter-arrival estimate (> 0)
  /// Worst-case queue multipliers; empty selects
  /// EnforcedWaitsConfig::optimistic.
  std::vector<double> b;
  control::ControllerConfig controller;
  std::size_t session_capacity = 4096;  ///< bounded in-flight items per session
  std::size_t batch_size = 256;         ///< max items per executor run
  /// Virtual cycles per wall-clock microsecond (the live arrival clock).
  double cycles_per_us = 1000.0;
  /// Worker shards. Sessions hash to a shard at open time; 1 preserves the
  /// single-worker deterministic path bit for bit.
  std::size_t shards = 1;
  /// Bounded MPSC ingest ring per shard (rounded up to a power of two).
  /// A full ring rejects as backpressure — counted, never dropped.
  std::size_t shard_queue_capacity = 65536;
  /// Pin shard worker k to core k mod hardware_concurrency (Linux only;
  /// ignored elsewhere).
  bool pin_workers = false;
  /// Must be 1: each shard runs its batches on its own worker thread with
  /// the sequential executor (DESIGN.md §16). The field stays only because
  /// the end-to-end benchmark driver still assigns it; construction rejects
  /// any other value.
  std::size_t exec_threads = 1;
};

struct SubmitOutcome {
  std::size_t accepted = 0;
  std::size_t rejected_backpressure = 0;
  std::size_t shed = 0;
};

/// Consistent-enough snapshot of the service counters (each counter is a
/// relaxed atomic; the set is not read under one lock).
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected_backpressure = 0;
  std::uint64_t shed = 0;
  std::uint64_t batches = 0;
  /// Items handed to the executor, including those of failed batches.
  std::uint64_t executed_items = 0;
  /// Batches whose executor run failed and the items they carried: spent,
  /// produced no sink output, and are counted here rather than dropped
  /// silently. failed_batches is the sum of the per-code counts.
  std::uint64_t failed_batches = 0;
  std::uint64_t failed_stage_exception = 0;  ///< a stage threw
  std::uint64_t failed_event_budget = 0;     ///< the event budget ran out
  std::uint64_t failed_items = 0;
  std::uint64_t sink_outputs = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t open_sessions = 0;
  /// Shard 0's plan epoch (the service epoch of the unsharded path).
  std::uint64_t plan_epoch = 0;
};

/// Per-shard snapshot: shard-owned counters plus the load summary the shard
/// last published to the AdmissionLedger. Safe from any thread.
struct ShardStats {
  std::size_t shard = 0;
  std::uint64_t open_sessions = 0;
  std::uint64_t batches = 0;
  std::uint64_t executed_items = 0;
  std::uint64_t failed_batches = 0;  ///< sum of the two per-code counts
  std::uint64_t failed_stage_exception = 0;
  std::uint64_t failed_event_budget = 0;
  std::uint64_t failed_items = 0;
  std::uint64_t plan_epoch = 0;
  std::size_t queue_depth = 0;       ///< pending at the last drain
  double offered_rate = 0.0;         ///< last published to the ledger
  Cycles worst_latency = 0.0;        ///< last published to the ledger
  std::uint64_t admitted_watermark = 0;
};

class PipelineService {
 public:
  /// Single-shard constructor (the classic interface): the stage set is
  /// used as-is by the one executor. Throws on malformed config
  /// (non-positive deadline/tau0, arity mismatch, infeasible deadline) and
  /// requires config.shards == 1 — stateful stages cannot be shared across
  /// shard workers.
  PipelineService(sdf::PipelineSpec pipeline,
                  std::vector<runtime::StageFn> stages, ServiceConfig config);
  /// Sharded constructor: `stages(shard)` builds a private stage set per
  /// shard. Works for any shard count.
  PipelineService(sdf::PipelineSpec pipeline, StageFactory stages,
                  ServiceConfig config);
  ~PipelineService();

  PipelineService(const PipelineService&) = delete;
  PipelineService& operator=(const PipelineService&) = delete;

  // --- session side (any thread) ------------------------------------------

  SessionId open_session();
  /// Unknown or already-closed ids are ignored (returns false). Pending
  /// items of a closed session still execute.
  bool close_session(SessionId id);

  /// Submit items on a session. Shed sessions reject everything (counted);
  /// admitted sessions accept up to the session's free in-flight capacity
  /// (and the shard ring's free space) and reject the rest as backpressure.
  /// Throws std::logic_error on an unknown session.
  ///
  /// Teardown semantics (pinned by ServiceLiveTest.SubmitDuringAndAfterStop):
  /// submit never fails just because the workers are stopping or stopped.
  /// Items accepted while stop() runs are either executed by the worker's
  /// final drain or stay queued; items accepted after stop() stay queued and
  /// execute on the next start() or drain_once(). Accepted-item conservation
  /// (executed + still-queued == accepted) holds across the race.
  SubmitOutcome submit(SessionId id, std::vector<runtime::Item> items);

  // --- lifecycle ----------------------------------------------------------

  /// Start one worker thread per shard. No-op when already running.
  void start();
  /// Drain every pending item on every shard, then join the workers.
  /// Idempotent.
  void stop();

  /// Synchronously drain pending items on the caller's thread, shard 0
  /// first — the single-threaded path for deterministic tests and the CLI
  /// replay of recorded submissions. Only valid while the workers are not
  /// running. Returns the number of items executed.
  std::size_t drain_once();

  /// Attach an ingest observer (the arrival journal). Non-owning; the
  /// observer must outlive the service or be detached (nullptr) first.
  /// Requires shards == 1 — the journal's drain records carry no shard
  /// identity, so interleaved multi-shard drains would not replay
  /// deterministically — and must not be changed while workers run.
  void set_ingest_observer(IngestObserver* observer);

  // --- introspection ------------------------------------------------------

  ServiceStats stats() const;
  std::size_t shards() const noexcept { return shards_.size(); }
  /// Which shard a session id maps to (stable for the service lifetime).
  std::size_t shard_of(SessionId id) const noexcept;
  /// Per-shard snapshot (safe from any thread).
  ShardStats shard_stats(std::size_t shard) const;
  const control::AdmissionLedger& admission() const { return ledger_; }

  control::PlanPtr current_plan() const { return plan(0); }
  /// Shard `shard`'s current plan (always safe; one shared_ptr copy).
  control::PlanPtr plan(std::size_t shard) const;
  /// Shard 0's controller, for the unsharded tests/CLI. The controller is
  /// written by its shard worker; read it only when the workers are stopped
  /// (tests) — the plan()/epoch() accessors are the exception and are always
  /// safe against a running worker.
  const control::Controller& controller() const { return controller(0); }
  const control::Controller& controller(std::size_t shard) const;
  const sdf::PipelineSpec& pipeline() const { return pipeline_; }

 private:
  struct Session {
    std::uint64_t open_seq = 0;  ///< admission order (1-based, global)
    bool open = true;            ///< guarded by the shard's sessions_mutex
    /// Accepted items not yet popped by the shard worker. fetch_add-then-
    /// check gives the exact session_capacity bound without a lock.
    std::atomic<std::size_t> inflight{0};
  };
  struct Pending {
    runtime::Item item;
    Cycles arrival = 0.0;
    std::uint64_t seq = 0;  ///< global submit order, breaks arrival ties
    Session* session = nullptr;  ///< owner; outlives the queue (never erased)
  };
  struct Shard {
    Shard(std::size_t index, const sdf::PipelineSpec& pipeline,
          std::vector<runtime::StageFn> stages, const ServiceConfig& config);

    const std::size_t index;
    runtime::PipelineExecutor executor;
    control::Controller controller;
    util::MpscQueue<Pending> queue;

    mutable std::mutex sessions_mutex;
    std::map<SessionId, std::unique_ptr<Session>> sessions;
    std::atomic<std::size_t> open_count{0};

    /// Sessions with open_seq <= watermark are admitted (read lock-free on
    /// the submit path; refreshed by the shard worker after each tick).
    std::atomic<std::uint64_t> admitted_watermark;
    std::atomic<std::uint64_t> pending_count{0};

    /// Arrival timestamps of shed submissions, drained by the worker for
    /// rate estimation only (see drain_shard).
    std::mutex shed_mutex;
    std::vector<Cycles> shed_arrivals;
    std::atomic<std::uint64_t> shed_since_drain{0};

    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> executed_items{0};
    std::atomic<std::uint64_t> failed_stage_exception{0};
    std::atomic<std::uint64_t> failed_event_budget{0};
    std::atomic<std::uint64_t> failed_items{0};
    std::atomic<std::size_t> last_drain_depth{0};

    /// Worker-only: newest offered arrival stamp fed to the controller.
    Cycles last_arrival = 0.0;
    /// Worker-only: worst batch latency since the last ledger publish (the
    /// readable copy lives in the ledger slot).
    Cycles worst_latency_interval = 0.0;

    std::mutex worker_mutex;
    std::condition_variable worker_cv;
    std::thread worker;

    std::vector<Pending> drain_scratch;  ///< worker-only batch buffer
    std::vector<Pending> batch_scratch;  ///< worker-only executor slice
    std::vector<Cycles> arrival_scratch;  ///< worker-only offered stamps
    std::vector<ArrivalRecord> observer_scratch;  ///< worker-only, journal
  };

  Cycles now() const;
  /// Wake the shard's worker. Takes worker_mutex for an instant before
  /// notifying: a worker that has checked its predicate holds the mutex
  /// until it blocks, so the notify cannot fall between check and block.
  static void wake(Shard& shard);
  void worker_loop(Shard& shard);
  /// Drain + execute everything currently pending on one shard (its worker,
  /// or drain_once on the caller's thread).
  std::size_t drain_shard(Shard& shard);
  void execute_batch(Shard& shard, std::vector<Pending>& batch);
  /// Recompute the shard's watermark through the ledger clamp; returns the
  /// admitted-session count it settled on.
  std::size_t refresh_watermark(Shard& shard);
  void publish_load(Shard& shard);

  sdf::PipelineSpec pipeline_;
  ServiceConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  control::AdmissionLedger ledger_;
  IngestObserver* ingest_observer_ = nullptr;

  std::atomic<std::uint64_t> next_session_seq_{0};
  std::atomic<std::uint64_t> submit_seq_{0};

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_backpressure_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> sink_outputs_{0};
  std::atomic<std::uint64_t> deadline_misses_{0};

  std::chrono::steady_clock::time_point epoch_time_;

  std::mutex lifecycle_mutex_;
  std::atomic<bool> stop_requested_{false};
  bool running_ = false;
};

/// Deterministic per-item stages whose emission counts track each node's
/// mean gain via an error-feedback accumulator (stage i emits floor(acc)
/// items after acc += g_i). Gives any PipelineSpec a runnable stage set for
/// the service demos, soak tests, and benches; the terminal stage passes
/// items through to the sink.
std::vector<runtime::StageFn> synthetic_stages(const sdf::PipelineSpec& spec);

/// Factory form of synthetic_stages: a fresh accumulator set per shard.
StageFactory synthetic_stage_factory(const sdf::PipelineSpec& spec);

}  // namespace ripple::service
