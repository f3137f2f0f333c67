// Google-benchmark suite for the online control loop (src/control +
// src/service): warm- vs cold-started re-plan latency, the steady-state cost
// of a control tick, and the closed-loop overhead of running the replay
// drain cycle (estimator feed + tick + chunk execution) against executing
// the same chunks under a static plan. scripts/run_bench_service.sh runs
// this suite and writes BENCH_service.json at the repo root; the acceptance
// bar is steady-state overhead under 2%.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "arrivals/arrival_process.hpp"
#include "control/controller.hpp"
#include "core/enforced_waits.hpp"
#include "dist/gain.hpp"
#include "net/server.hpp"
#include "runtime/pipeline_executor.hpp"
#include "sdf/pipeline.hpp"
#include "service/service.hpp"
#include "sim/enforced_sim.hpp"
#include "util/mpsc_queue.hpp"

namespace {

using namespace ripple;

/// A deeper pipeline than the unit tests use, so the solver's active-set
/// iteration cost is representative: six nodes, mixed gains.
sdf::PipelineSpec make_solver_spec() {
  auto spec = sdf::PipelineBuilder("svc_bench_deep")
                  .simd_width(16)
                  .add_node("seed", 40.0, dist::make_deterministic(3))
                  .add_node("expand", 55.0, dist::make_bernoulli(0.6))
                  .add_node("extend", 90.0, dist::make_deterministic(2))
                  .add_node("score", 35.0, dist::make_bernoulli(0.4))
                  .add_node("rank", 25.0, dist::make_deterministic(1))
                  .add_node("emit", 20.0, nullptr)
                  .build()
                  .value();
  return spec;
}

/// The control-loop pipeline shared with the service tests (floor tau0 = 5).
sdf::PipelineSpec make_loop_spec() {
  auto spec = sdf::PipelineBuilder("svc_bench_loop")
                  .simd_width(4)
                  .add_node("expand", 8.0, dist::make_deterministic(2))
                  .add_node("filter", 6.0, dist::make_deterministic(1))
                  .add_node("sink", 10.0, nullptr)
                  .build()
                  .value();
  return spec;
}

constexpr Cycles kDeadline = 40000.0;
constexpr Cycles kLoopDeadline = 600.0;
constexpr std::size_t kChunk = 256;

/// Re-plan latency, cold: every solve starts from scratch. The targets
/// alternate +/-5% around a base operating point, the drift that actually
/// triggers re-plans in the hysteresis loop.
void BM_ReplanColdSolve(benchmark::State& state) {
  const sdf::PipelineSpec spec = make_solver_spec();
  const core::EnforcedWaitsStrategy strategy(
      spec, core::EnforcedWaitsConfig::optimistic(spec));
  const Cycles base = 2.0 * strategy.min_feasible_tau0(kDeadline);
  std::size_t flip = 0;
  for (auto _ : state) {
    const Cycles target = base * (flip++ % 2 == 0 ? 1.05 : 0.95);
    auto solved = strategy.solve(target, kDeadline);
    benchmark::DoNotOptimize(solved);
  }
}
BENCHMARK(BM_ReplanColdSolve);

/// The hysteresis fast path: one observed arrival group plus a tick that
/// keeps the plan (the tick sums the 256-group window). This is the per-control-interval cost the service pays in steady
/// state on top of executing the batch.
void BM_ControllerTickSteady(benchmark::State& state) {
  const sdf::PipelineSpec spec = make_loop_spec();
  control::Controller controller(
      spec, core::EnforcedWaitsConfig::optimistic(spec), kLoopDeadline, 20.0);
  for (int i = 0; i < 2000; ++i) controller.observe_group(20.0, 1);
  for (auto _ : state) {
    controller.observe_group(20.0, 1);
    auto decision = controller.tick();
    benchmark::DoNotOptimize(decision);
  }
}
BENCHMARK(BM_ControllerTickSteady);

/// The per-group cost the closed loop adds on the ingest side: one window
/// slot store. Together with the tick, this is the entire steady-state
/// control overhead per chunk (at most kChunk groups + one tick), which
/// scripts/run_bench_service.sh relates to the static-plan chunk time.
void BM_ObserveGroupSteady(benchmark::State& state) {
  const sdf::PipelineSpec spec = make_loop_spec();
  control::Controller controller(
      spec, core::EnforcedWaitsConfig::optimistic(spec), kLoopDeadline, 20.0);
  for (int i = 0; i < 2000; ++i) controller.observe_group(20.0, 1);
  for (auto _ : state) {
    controller.observe_group(20.0, 1);
  }
  benchmark::DoNotOptimize(controller);
}
BENCHMARK(BM_ObserveGroupSteady);

/// One batch through the service's executor path (the batch the worker runs
/// per drain), shared by the closed-loop and static-plan chunk benchmarks.
void run_executor_chunk(runtime::PipelineExecutor& executor,
                        const std::vector<Cycles>& intervals, Cycles first_gap,
                        benchmark::State& state) {
  runtime::ExecutorConfig config;
  config.firing_intervals = intervals;
  config.deadline = kLoopDeadline;
  config.max_collected_results = 0;
  config.input_gaps.assign(kChunk, 20.0);
  config.input_gaps.front() = first_gap;
  std::vector<runtime::Item> inputs;
  inputs.reserve(kChunk);
  for (std::uint64_t i = 0; i < kChunk; ++i) inputs.emplace_back(i);
  auto result = executor.run(std::move(inputs), config);
  if (!result.ok()) state.SkipWithError("executor chunk failed");
  benchmark::DoNotOptimize(result);
}

/// One steady-state drain cycle of the closed loop: feed a chunk of offered
/// single-item groups to the estimator, tick the controller (kept plan), and execute the
/// chunk through the service's executor under the current plan — the same
/// per-batch work PipelineService::drain_pending does.
void BM_ClosedLoopChunkSteady(benchmark::State& state) {
  const sdf::PipelineSpec spec = make_loop_spec();
  control::Controller controller(
      spec, core::EnforcedWaitsConfig::optimistic(spec), kLoopDeadline, 20.0);
  for (int i = 0; i < 2000; ++i) controller.observe_group(20.0, 1);
  runtime::PipelineExecutor executor(spec, service::synthetic_stages(spec));

  for (auto _ : state) {
    for (std::size_t i = 0; i < kChunk; ++i) controller.observe_group(20.0, 1);
    auto decision = controller.tick();
    benchmark::DoNotOptimize(decision);
    const control::PlanPtr plan = controller.plan();
    run_executor_chunk(executor, plan->schedule.firing_intervals,
                       plan->planned_tau0, state);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kChunk));
}
BENCHMARK(BM_ClosedLoopChunkSteady);

/// The same chunk executed under a fixed offline plan with no control loop:
/// the baseline the closed loop's steady-state overhead is measured against.
void BM_StaticPlanChunk(benchmark::State& state) {
  const sdf::PipelineSpec spec = make_loop_spec();
  const core::EnforcedWaitsStrategy strategy(
      spec, core::EnforcedWaitsConfig::optimistic(spec));
  const auto schedule = strategy.solve(20.0, kLoopDeadline).value();
  runtime::PipelineExecutor executor(spec, service::synthetic_stages(spec));

  for (auto _ : state) {
    run_executor_chunk(executor, schedule.firing_intervals, 20.0, state);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kChunk));
}
BENCHMARK(BM_StaticPlanChunk);

// ---------------------------------------------------------------------------
// Sharded ingest: the drain-side data-structure swap and the shard sweep.
//
// The pre-PR service kept one mutex-guarded pending vector per session and
// every drain scanned ALL open sessions to collect the batch — O(open
// sessions) per drain even when almost every session is idle, which is the
// realistic shape (many long-lived sessions, few active per interval). The
// sharded service replaced that with one bounded MPSC ring per shard, so a
// drain costs O(items popped). BM_IngestLegacyScanMerge reimplements the old
// collect phase faithfully (lock each session, steal its pending vector,
// merge, sort); BM_IngestMpscDrain runs the same offered load through the
// new rings at 1/2/4/8 shards. scripts/run_bench_service.sh publishes the
// ratio as the drain-throughput scaling curve in BENCH_service.json.
// ---------------------------------------------------------------------------

constexpr std::size_t kIngestSessions = 16384;  // mostly idle, like production
constexpr std::size_t kActiveSessions = 64;     // submit per drain interval
constexpr std::size_t kItemsPerActive = 8;      // 512 items per drain

struct BenchPending {
  std::uint64_t value = 0;
  Cycles arrival = 0.0;
  std::uint64_t seq = 0;
};

/// The old per-session ingest state: mutex + growable pending vector.
struct LegacySession {
  std::mutex mutex;
  std::vector<BenchPending> pending;
};

void BM_IngestLegacyScanMerge(benchmark::State& state) {
  std::vector<std::unique_ptr<LegacySession>> sessions;
  sessions.reserve(kIngestSessions);
  for (std::size_t i = 0; i < kIngestSessions; ++i) {
    sessions.push_back(std::make_unique<LegacySession>());
  }
  std::vector<BenchPending> batch;
  batch.reserve(kActiveSessions * kItemsPerActive);
  std::uint64_t seq = 0;

  for (auto _ : state) {
    state.PauseTiming();
    // Refill: a few active sessions spread across the table, everyone else
    // idle — exactly the case the scan pays for.
    for (std::size_t a = 0; a < kActiveSessions; ++a) {
      LegacySession& session =
          *sessions[(a * (kIngestSessions / kActiveSessions)) %
                    kIngestSessions];
      for (std::size_t k = 0; k < kItemsPerActive; ++k) {
        session.pending.push_back(
            {seq, static_cast<Cycles>(seq % 97), seq});
        ++seq;
      }
    }
    state.ResumeTiming();

    // The old drain's collect phase: scan every session under its lock.
    batch.clear();
    for (auto& session : sessions) {
      std::lock_guard<std::mutex> lock(session->mutex);
      if (session->pending.empty()) continue;
      for (BenchPending& pending : session->pending) {
        batch.push_back(pending);
      }
      session->pending.clear();
    }
    std::sort(batch.begin(), batch.end(),
              [](const BenchPending& a, const BenchPending& b) {
                if (a.arrival != b.arrival) return a.arrival < b.arrival;
                return a.seq < b.seq;
              });
    benchmark::DoNotOptimize(batch.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(kActiveSessions * kItemsPerActive));
}
BENCHMARK(BM_IngestLegacyScanMerge);

void BM_IngestMpscDrain(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  std::vector<std::unique_ptr<util::MpscQueue<BenchPending>>> queues;
  for (std::size_t s = 0; s < shards; ++s) {
    queues.push_back(
        std::make_unique<util::MpscQueue<BenchPending>>(65536));
  }
  std::vector<BenchPending> batch;
  batch.reserve(kActiveSessions * kItemsPerActive);
  std::uint64_t seq = 0;

  for (auto _ : state) {
    state.PauseTiming();
    for (std::size_t a = 0; a < kActiveSessions; ++a) {
      util::MpscQueue<BenchPending>& queue = *queues[a % shards];
      for (std::size_t k = 0; k < kItemsPerActive; ++k) {
        queue.try_push({seq, static_cast<Cycles>(seq % 97), seq});
        ++seq;
      }
    }
    state.ResumeTiming();

    // The new drain's collect phase: pop what is there, no session scan.
    for (auto& queue : queues) {
      batch.clear();
      queue->drain(batch);
      std::sort(batch.begin(), batch.end(),
                [](const BenchPending& a, const BenchPending& b) {
                  if (a.arrival != b.arrival) return a.arrival < b.arrival;
                  return a.seq < b.seq;
                });
      benchmark::DoNotOptimize(batch.data());
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(kActiveSessions * kItemsPerActive));
}
BENCHMARK(BM_IngestMpscDrain)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// End-to-end service drain at each shard count: open sessions, submit one
/// interval's load, drain_once (pop + sort + tick + execute). Complements
/// the ingest-only pair above with the full-path numbers the scaling curve
/// reports alongside.
void BM_ServiceDrainSharded(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  const sdf::PipelineSpec spec = make_loop_spec();
  service::ServiceConfig config;
  config.deadline = kLoopDeadline;
  config.initial_tau0 = 20.0;
  config.shards = shards;
  config.session_capacity = 4096;
  service::PipelineService service(
      spec, service::synthetic_stage_factory(spec), config);

  std::vector<service::SessionId> sessions;
  for (std::size_t i = 0; i < kActiveSessions; ++i) {
    sessions.push_back(service.open_session());
  }

  std::uint64_t counter = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (const service::SessionId id : sessions) {
      std::vector<runtime::Item> items;
      items.reserve(kItemsPerActive);
      for (std::size_t k = 0; k < kItemsPerActive; ++k) {
        items.emplace_back(counter++);
      }
      service.submit(id, std::move(items));
    }
    state.ResumeTiming();
    const std::size_t executed = service.drain_once();
    benchmark::DoNotOptimize(executed);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(kActiveSessions * kItemsPerActive));
}
BENCHMARK(BM_ServiceDrainSharded)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// The submit fast path with coalesced wakeups: per-item cost of the
/// admission check + backpressure reservation + MPSC push. The worker is
/// deliberately not running — this isolates the producer-side cost the
/// coalescing optimization targets (no syscall per submit once the shard is
/// already signalled).
void BM_SubmitSteady(benchmark::State& state) {
  const sdf::PipelineSpec spec = make_loop_spec();
  service::ServiceConfig config;
  config.deadline = kLoopDeadline;
  config.initial_tau0 = 20.0;
  config.session_capacity = 1u << 20;
  config.shard_queue_capacity = 1u << 20;
  service::PipelineService service(
      spec, service::synthetic_stage_factory(spec), config);
  const service::SessionId id = service.open_session();

  constexpr std::size_t kBatch = 8;
  std::uint64_t counter = 0;
  std::size_t in_queue = 0;
  for (auto _ : state) {
    if (in_queue + kBatch > (1u << 20)) {
      state.PauseTiming();
      service.drain_once();
      in_queue = 0;
      state.ResumeTiming();
    }
    std::vector<runtime::Item> items;
    items.reserve(kBatch);
    for (std::size_t k = 0; k < kBatch; ++k) items.emplace_back(counter++);
    const service::SubmitOutcome outcome =
        service.submit(id, std::move(items));
    benchmark::DoNotOptimize(outcome);
    in_queue += outcome.accepted;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_SubmitSteady);

/// The network front door end to end: one loopback TCP client streaming
/// kChunk-item ripple.frame.v1 batches through the epoll server into the
/// running service (worker live, controller ticking on every drain). Items
/// processed counts what the service ACCEPTED, not what the client wrote —
/// socket buffering and backpressure rejections must not inflate the
/// number. scripts/run_bench_service.sh gates the >= 1M items/s acceptance
/// bar on this throughput.
void BM_LoopbackIngest(benchmark::State& state) {
  const sdf::PipelineSpec spec = make_loop_spec();
  service::ServiceConfig config;
  config.deadline = kLoopDeadline;
  config.initial_tau0 = 20.0;
  // Huge virtual gaps per wall microsecond keep the estimator far above the
  // feasibility floor: the controller is live but never sheds, and the big
  // capacities keep backpressure rejections out of the throughput number.
  config.cycles_per_us = 1e6;
  config.session_capacity = 1u << 20;
  config.shard_queue_capacity = 1u << 20;
  service::PipelineService service(
      spec, service::synthetic_stage_factory(spec), config);
  service.start();
  net::IngestServer server(service, net::ServerConfig{});
  server.start();
  net::IngestClient client("127.0.0.1", server.port());
  client.open_session(1);

  std::vector<std::uint64_t> items(kChunk);
  std::uint64_t counter = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < items.size(); ++i) items[i] = counter++;
    client.send_items(1, items.data(), items.size());
    client.poll_notifications();  // drain any shed/backpressure frames
  }
  client.close_session(1);
  client.finish();
  server.stop();
  service.stop();

  const service::ServiceStats stats = service.stats();
  state.counters["rejected"] = static_cast<double>(
      stats.rejected_backpressure + stats.shed);
  state.SetItemsProcessed(static_cast<std::int64_t>(stats.accepted));
}
BENCHMARK(BM_LoopbackIngest);

}  // namespace

BENCHMARK_MAIN();
