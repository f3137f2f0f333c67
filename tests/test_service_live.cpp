// PipelineService: single-threaded deterministic paths (drain_once
// conservation, backpressure, session lifecycle, shed-newest-first, the
// shed-stream liveness tick and failed-batch accounting), the worker wake
// protocol (idle workers sleep, trickled and shed-only submits always wake
// them), plus the multi-threaded soaks the CI TSan job runs to validate the
// lock/atomic discipline.
#include <gtest/gtest.h>

#include <time.h>

#include <any>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "dist/gain.hpp"
#include "sdf/pipeline.hpp"
#include "service/service.hpp"

namespace ripple::service {
namespace {

// Same pipeline as the other service tests: floor tau0 = 5, minimal
// budget 60. Synthetic stages give deterministic gain 2 end to end, so every
// executed item yields exactly two sink outputs.
sdf::PipelineSpec make_spec() {
  auto spec = sdf::PipelineBuilder("live")
                  .simd_width(4)
                  .add_node("expand", 8.0, dist::make_deterministic(2))
                  .add_node("filter", 6.0, dist::make_deterministic(1))
                  .add_node("sink", 10.0, nullptr)
                  .build();
  EXPECT_TRUE(spec.ok());
  return spec.value();
}

ServiceConfig base_config() {
  ServiceConfig config;
  config.deadline = 600.0;
  config.initial_tau0 = 20.0;
  return config;
}

std::vector<runtime::Item> make_items(std::size_t n) {
  std::vector<runtime::Item> items;
  for (std::uint64_t i = 0; i < n; ++i) items.emplace_back(i);
  return items;
}

TEST(ServiceLiveTest, DrainOnceConservesEveryAcceptedItem) {
  const sdf::PipelineSpec spec = make_spec();
  PipelineService service(spec, synthetic_stages(spec), base_config());
  const SessionId a = service.open_session();
  const SessionId b = service.open_session();

  std::size_t accepted = 0;
  for (int round = 0; round < 10; ++round) {
    accepted += service.submit(round % 2 == 0 ? a : b, make_items(16)).accepted;
  }
  const std::size_t executed = service.drain_once();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 160u);
  EXPECT_EQ(executed, accepted);
  EXPECT_EQ(stats.executed_items, stats.accepted);
  EXPECT_EQ(stats.submitted,
            stats.accepted + stats.rejected_backpressure + stats.shed);
  EXPECT_EQ(stats.sink_outputs, 2 * stats.executed_items);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_EQ(stats.open_sessions, 2u);
  EXPECT_GE(stats.plan_epoch, 1u);
  // Nothing pending: a second drain is a no-op (no new arrivals to tick on).
  EXPECT_EQ(service.drain_once(), 0u);
}

TEST(ServiceLiveTest, BackpressureBoundsTheSessionQueue) {
  const sdf::PipelineSpec spec = make_spec();
  ServiceConfig config = base_config();
  config.session_capacity = 8;
  PipelineService service(spec, synthetic_stages(spec), config);
  const SessionId id = service.open_session();

  const SubmitOutcome first = service.submit(id, make_items(20));
  EXPECT_EQ(first.accepted, 8u);
  EXPECT_EQ(first.rejected_backpressure, 12u);
  EXPECT_EQ(first.shed, 0u);

  // Draining frees the whole queue for the next submit.
  EXPECT_EQ(service.drain_once(), 8u);
  EXPECT_EQ(service.submit(id, make_items(5)).accepted, 5u);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected_backpressure, 12u);
  EXPECT_EQ(stats.accepted, 13u);
}

TEST(ServiceLiveTest, SessionLifecycle) {
  const sdf::PipelineSpec spec = make_spec();
  PipelineService service(spec, synthetic_stages(spec), base_config());

  EXPECT_THROW(service.submit(42, make_items(1)), std::logic_error);

  const SessionId id = service.open_session();
  EXPECT_EQ(service.submit(id, make_items(3)).accepted, 3u);
  EXPECT_TRUE(service.close_session(id));
  EXPECT_FALSE(service.close_session(id));   // already closed
  EXPECT_FALSE(service.close_session(999));  // never existed
  EXPECT_THROW(service.submit(id, make_items(1)), std::logic_error);
  EXPECT_EQ(service.stats().open_sessions, 0u);

  // Pending items of a closed session still execute.
  EXPECT_EQ(service.drain_once(), 3u);
  EXPECT_EQ(service.stats().executed_items, 3u);
}

TEST(ServiceLiveTest, OverloadShedsNewestSessionsFirst) {
  const sdf::PipelineSpec spec = make_spec();
  ServiceConfig config = base_config();
  // The prior 3.5 sits between half the floor (2.5) and the floor (5): the
  // initial plan sheds, and while the estimator is cold every tick admits
  // floor(2 * 3.5 / 5) = 1 of 2 sessions — the oldest.
  config.initial_tau0 = 3.5;
  // Collapse the virtual clock: every wall-clock gap maps to ~0 cycles, so
  // once warm (3 arrival groups) the estimate reads far above the feasible
  // rate regardless of host timing.
  config.cycles_per_us = 1e-6;
  config.controller.estimator.min_samples = 3;
  PipelineService service(spec, synthetic_stages(spec), config);
  const SessionId oldest = service.open_session();
  const SessionId newest = service.open_session();

  // A shedding initial plan starts with the gate closed to every session
  // until the first tick sets the admitted count.
  EXPECT_EQ(service.submit(oldest, make_items(35)).shed, 35u);
  EXPECT_EQ(service.drain_once(), 0u);
  ASSERT_TRUE(service.current_plan()->shedding);

  const SubmitOutcome admitted = service.submit(oldest, make_items(10));
  EXPECT_EQ(admitted.accepted, 10u);
  EXPECT_EQ(admitted.shed, 0u);
  const SubmitOutcome rejected = service.submit(newest, make_items(10));
  EXPECT_EQ(rejected.shed, 10u);
  EXPECT_EQ(rejected.accepted, 0u);

  // The next drain brings the third arrival group (admitted and shed
  // arrivals both feed the estimator): warm, the estimate sits far beyond
  // the feasible rate and the gate closes completely.
  EXPECT_EQ(service.drain_once(), 10u);
  const SubmitOutcome all_shed = service.submit(oldest, make_items(3));
  EXPECT_EQ(all_shed.shed, 3u);

  // Liveness while fully shed: a drain with only shed arrivals still ticks
  // the controller, so the estimator keeps seeing the offered stream and
  // can reopen the gate when the load drops.
  const std::uint64_t ticks_before = service.controller().stats().ticks;
  EXPECT_EQ(service.drain_once(), 0u);
  EXPECT_EQ(service.controller().stats().ticks, ticks_before + 1);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed, 48u);
  EXPECT_EQ(stats.executed_items, stats.accepted);
  EXPECT_EQ(stats.sink_outputs, 2 * stats.executed_items);
  EXPECT_EQ(stats.submitted, stats.accepted + stats.shed);
}

TEST(ServiceLiveTest, StartStopIsIdempotent) {
  const sdf::PipelineSpec spec = make_spec();
  PipelineService service(spec, synthetic_stages(spec), base_config());
  service.start();
  service.start();  // no-op
  const SessionId id = service.open_session();
  service.submit(id, make_items(8));
  service.stop();   // drains pending items before joining
  service.stop();   // no-op
  EXPECT_EQ(service.stats().executed_items, service.stats().accepted);
  // drain_once is valid again once the worker is stopped.
  service.submit(id, make_items(4));
  EXPECT_EQ(service.drain_once(), 4u);
}

// Pins the teardown semantics documented on PipelineService::submit():
// submitting while stop() tears the worker down — or after it returns —
// never throws and never loses accepted items. Whatever stop()'s final
// drain leaves queued is picked up, exactly once, by the next drain_once().
TEST(ServiceLiveTest, SubmitDuringAndAfterStop) {
  const sdf::PipelineSpec spec = make_spec();
  PipelineService service(spec, synthetic_stages(spec), base_config());
  const SessionId id = service.open_session();
  service.start();

  // Bounded rounds, not a free-running flag loop: stop()'s final drain waits
  // for the queue to empty, and unbounded producers could refill it for as
  // long as the scheduler lets them (a livelock under TSan on one core).
  std::atomic<std::uint64_t> accepted{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&] {
      for (int round = 0; round < 300; ++round) {
        accepted.fetch_add(service.submit(id, make_items(4)).accepted,
                           std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  service.stop();  // races the producers by design
  for (std::thread& producer : producers) producer.join();
  // After stop() submit still succeeds; acceptances queue for a later drain.
  for (int i = 0; i < 8; ++i) {
    accepted.fetch_add(service.submit(id, make_items(4)).accepted,
                       std::memory_order_relaxed);
  }

  const ServiceStats mid = service.stats();
  EXPECT_EQ(mid.accepted, accepted.load());
  EXPECT_LE(mid.executed_items, mid.accepted);

  // Conservation across the race: executed + still-queued == accepted.
  const std::size_t leftovers = service.drain_once();
  const ServiceStats fin = service.stats();
  EXPECT_EQ(fin.executed_items, mid.executed_items + leftovers);
  EXPECT_EQ(fin.executed_items, fin.accepted);
  EXPECT_EQ(fin.sink_outputs, 2 * fin.executed_items);
  EXPECT_EQ(service.drain_once(), 0u);
}

// The multi-threaded soak the CI ThreadSanitizer job runs: concurrent
// producers, session churn, and a stats/plan reader hammering the RCU plan
// pointer while the worker drains and re-plans.
TEST(ServiceLiveTest, MultiThreadedSoak) {
  const sdf::PipelineSpec spec = make_spec();
  PipelineService service(spec, synthetic_stages(spec), base_config());
  service.start();

  constexpr int kProducers = 4;
  constexpr int kRounds = 40;
  constexpr std::size_t kBatch = 8;

  std::atomic<bool> stop_reader{false};
  std::thread reader([&] {
    while (!stop_reader.load(std::memory_order_relaxed)) {
      const ServiceStats stats = service.stats();
      const control::PlanPtr plan = service.current_plan();
      ASSERT_NE(plan, nullptr);
      ASSERT_GE(plan->epoch, 1u);
      ASSERT_LE(stats.accepted, stats.submitted);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });

  std::thread churn([&] {
    // Sessions that open, maybe submit once, and close while producers run.
    for (int i = 0; i < 50; ++i) {
      const SessionId id = service.open_session();
      service.submit(id, make_items(2));
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      service.close_session(id);
    }
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const SessionId id = service.open_session();
      for (int round = 0; round < kRounds; ++round) {
        service.submit(id, make_items(kBatch));
        if (round % 4 == p % 4) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
      service.close_session(id);
    });
  }

  for (std::thread& producer : producers) producer.join();
  churn.join();
  service.stop();
  stop_reader.store(true);
  reader.join();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, stats.accepted + stats.rejected_backpressure +
                                 stats.shed);
  // stop() drains everything that was accepted.
  EXPECT_EQ(stats.executed_items, stats.accepted);
  EXPECT_EQ(stats.sink_outputs, 2 * stats.executed_items);
  EXPECT_EQ(stats.open_sessions, 0u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_GE(service.controller().stats().ticks, 1u);
}

TEST(ServiceShardedTest, SessionsSpreadAcrossShardsAndConserveItems) {
  const sdf::PipelineSpec spec = make_spec();
  ServiceConfig config = base_config();
  config.shards = 4;
  PipelineService service(spec, synthetic_stage_factory(spec), config);
  ASSERT_EQ(service.shards(), 4u);

  // Open enough sessions that the splitmix64 placement hits every shard.
  std::vector<SessionId> sessions;
  for (int i = 0; i < 32; ++i) sessions.push_back(service.open_session());
  bool hit[4] = {};
  for (const SessionId id : sessions) hit[service.shard_of(id)] = true;
  EXPECT_TRUE(hit[0] && hit[1] && hit[2] && hit[3]);

  std::size_t accepted = 0;
  for (const SessionId id : sessions) {
    accepted += service.submit(id, make_items(8)).accepted;
  }
  EXPECT_EQ(service.drain_once(), accepted);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 32u * 8u);
  EXPECT_EQ(stats.executed_items, stats.accepted);
  EXPECT_EQ(stats.sink_outputs, 2 * stats.executed_items);
  EXPECT_EQ(stats.open_sessions, 32u);

  // Per-shard counters partition the global ones.
  std::size_t shard_items = 0;
  std::size_t shard_sessions = 0;
  for (std::size_t s = 0; s < service.shards(); ++s) {
    const ShardStats shard = service.shard_stats(s);
    EXPECT_EQ(shard.shard, s);
    EXPECT_GE(shard.plan_epoch, 1u);
    shard_items += shard.executed_items;
    shard_sessions += shard.open_sessions;
  }
  EXPECT_EQ(shard_items, stats.executed_items);
  EXPECT_EQ(shard_sessions, 32u);
}

TEST(ServiceShardedTest, ShardOfIsStableAndInRange) {
  const sdf::PipelineSpec spec = make_spec();
  ServiceConfig config = base_config();
  config.shards = 4;
  PipelineService service(spec, synthetic_stage_factory(spec), config);
  for (SessionId id = 1; id <= 1000; ++id) {
    const std::size_t shard = service.shard_of(id);
    EXPECT_LT(shard, 4u);
    EXPECT_EQ(service.shard_of(id), shard);  // placement is pure
  }
}

// Multi-shard version of the TSan soak: four shard workers, concurrent
// producers spread across shards by session hash, session churn, and a
// reader polling global and per-shard stats. Item conservation must hold
// globally across all shard queues.
TEST(ServiceShardedTest, MultiShardSoakConservesItems) {
  const sdf::PipelineSpec spec = make_spec();
  ServiceConfig config = base_config();
  config.shards = 4;
  PipelineService service(spec, synthetic_stage_factory(spec), config);
  service.start();

  constexpr int kProducers = 4;
  constexpr int kRounds = 40;
  constexpr std::size_t kBatch = 8;

  std::atomic<bool> stop_reader{false};
  std::thread reader([&] {
    while (!stop_reader.load(std::memory_order_relaxed)) {
      const ServiceStats stats = service.stats();
      ASSERT_LE(stats.accepted, stats.submitted);
      for (std::size_t s = 0; s < service.shards(); ++s) {
        const control::PlanPtr plan = service.plan(s);
        ASSERT_NE(plan, nullptr);
        ASSERT_GE(plan->epoch, 1u);
        (void)service.shard_stats(s);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });

  std::thread churn([&] {
    for (int i = 0; i < 50; ++i) {
      const SessionId id = service.open_session();
      service.submit(id, make_items(2));
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      service.close_session(id);
    }
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      // Two sessions per producer raises the odds every shard sees load.
      const SessionId a = service.open_session();
      const SessionId b = service.open_session();
      for (int round = 0; round < kRounds; ++round) {
        service.submit(round % 2 == 0 ? a : b, make_items(kBatch));
        if (round % 4 == p % 4) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
      service.close_session(a);
      service.close_session(b);
    });
  }

  for (std::thread& producer : producers) producer.join();
  churn.join();
  service.stop();
  stop_reader.store(true);
  reader.join();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, stats.accepted + stats.rejected_backpressure +
                                 stats.shed);
  EXPECT_EQ(stats.executed_items, stats.accepted);
  EXPECT_EQ(stats.sink_outputs, 2 * stats.executed_items);
  EXPECT_EQ(stats.open_sessions, 0u);

  std::size_t shard_items = 0;
  for (std::size_t s = 0; s < service.shards(); ++s) {
    shard_items += service.shard_stats(s).executed_items;
  }
  EXPECT_EQ(shard_items, stats.executed_items);
}

// A stage that throws fails its whole batch: the batch's items are spent,
// counted as failed — under the stage_exception code — rather than dropped
// silently, and the service keeps draining later submissions.
// executed_items still counts the failed batch, so accepted == executed
// conservation holds.
TEST(ServiceLiveTest, FailedBatchIsCountedAndDrainingContinues) {
  const sdf::PipelineSpec spec = make_spec();
  std::vector<runtime::StageFn> stages = synthetic_stages(spec);
  auto armed = std::make_shared<bool>(true);
  stages[0] = [inner = stages[0], armed](runtime::Item&& input,
                                         std::vector<runtime::Item>& outputs) {
    if (*armed && std::any_cast<std::uint64_t>(input) == 5) {
      *armed = false;
      throw std::runtime_error("poison item");
    }
    inner(std::move(input), outputs);
  };
  ServiceConfig config = base_config();
  constexpr std::size_t kBatch = 16;
  ASSERT_GE(config.batch_size, kBatch);  // one drain = one executor batch
  PipelineService service(spec, std::move(stages), config);
  const SessionId session = service.open_session();

  ASSERT_EQ(service.submit(session, make_items(kBatch)).accepted, kBatch);
  EXPECT_EQ(service.drain_once(), kBatch);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.failed_batches, 1u);
  EXPECT_EQ(stats.failed_stage_exception, 1u);
  EXPECT_EQ(stats.failed_event_budget, 0u);
  EXPECT_EQ(stats.failed_items, kBatch);
  EXPECT_EQ(stats.executed_items, kBatch);
  EXPECT_EQ(stats.sink_outputs, 0u);
  const ShardStats shard = service.shard_stats(0);
  EXPECT_EQ(shard.failed_batches, 1u);
  EXPECT_EQ(shard.failed_stage_exception, 1u);
  EXPECT_EQ(shard.failed_event_budget, 0u);
  EXPECT_EQ(shard.failed_items, kBatch);

  ASSERT_EQ(service.submit(session, make_items(kBatch)).accepted, kBatch);
  EXPECT_EQ(service.drain_once(), kBatch);
  stats = service.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.failed_batches, 1u);
  EXPECT_EQ(stats.failed_batches,
            stats.failed_stage_exception + stats.failed_event_budget);
  EXPECT_EQ(stats.failed_items, kBatch);
  EXPECT_EQ(stats.executed_items, stats.accepted);
  EXPECT_EQ(stats.sink_outputs, 2 * kBatch);
}

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Idle shard workers block on their condition variable with no timeout: a
// started service with no load spends (almost) no CPU. The service threads'
// CPU is the process CPU minus this thread's own.
TEST(ServiceLiveTest, IdleWorkersSleep) {
  const sdf::PipelineSpec spec = make_spec();
  ServiceConfig config = base_config();
  config.shards = 2;
  PipelineService service(spec, synthetic_stage_factory(spec), config);
  service.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // threads up

  const double process0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
  const double self0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const double process1 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
  const double self1 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  service.stop();

  const double workers_ms = 1e3 * ((process1 - process0) - (self1 - self0));
  EXPECT_LT(workers_ms, 3.0) << "idle shard workers burned " << workers_ms
                             << " ms of CPU in 300 ms";
}

// Single-item submits with random pauses hit every interleaving of a
// producer's notify with a worker that is just going to sleep. None may be
// lost: every accepted item executes shortly after the last submit, with no
// timed poll to rescue a missed wakeup.
TEST(ServiceLiveTest, TrickleSubmitsNeverStall) {
  const sdf::PipelineSpec spec = make_spec();
  ServiceConfig config = base_config();
  config.shards = 2;
  // One virtual cycle per microsecond: a pause maps to at most 200 cycles,
  // so a batch that spans a few pauses simulates a handful of firings, not
  // thousands of empty ones (which would slow the sanitizer build).
  config.cycles_per_us = 1.0;
  PipelineService service(spec, synthetic_stage_factory(spec), config);
  service.start();

  constexpr int kProducers = 4;
  constexpr int kItems = 2000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::mt19937 rng(static_cast<unsigned>(p + 1));
      std::uniform_int_distribution<int> pause_us(0, 200);
      // Two sessions per producer: their hashes reach both shards.
      const SessionId sessions[2] = {service.open_session(),
                                     service.open_session()};
      for (int i = 0; i < kItems; ++i) {
        service.submit(sessions[i % 2], make_items(1));
        std::this_thread::sleep_for(std::chrono::microseconds(pause_us(rng)));
      }
    });
  }
  for (std::thread& producer : producers) producer.join();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (service.stats().executed_items < service.stats().accepted &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kProducers * kItems));
  EXPECT_EQ(stats.accepted + stats.rejected_backpressure + stats.shed,
            stats.submitted);
  EXPECT_EQ(stats.executed_items, stats.accepted)
      << "items still pending 1 s after the last submit: a lost wakeup";
  service.stop();
}

// A shard whose every session is shed still has to see its offered load: a
// single shed submit wakes the worker, which ticks the controller, without
// any further submit to nudge it.
TEST(ServiceLiveTest, ShedOnlySubmitWakesTheWorker) {
  const sdf::PipelineSpec spec = make_spec();
  ServiceConfig config = base_config();
  config.initial_tau0 = 1.0;  // 5x the feasible rate: every session is shed
  PipelineService service(spec, synthetic_stages(spec), config);
  ASSERT_TRUE(service.current_plan()->shedding);
  const SessionId id = service.open_session();
  service.start();

  EXPECT_EQ(service.submit(id, make_items(3)).shed, 3u);
  // The tick publishes the shard's load to the ledger (safe to poll while
  // the worker runs); the ledger reads 0 until the first tick.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (service.shard_stats(0).offered_rate == 0.0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  EXPECT_GT(service.shard_stats(0).offered_rate, 0.0)
      << "the shed submit never woke the worker";
  service.stop();
  EXPECT_EQ(service.controller().stats().ticks, 1u);
  EXPECT_EQ(service.controller().estimator().samples(), 1u);
}

TEST(ServiceLiveTest, RejectsMalformedConfig) {
  const sdf::PipelineSpec spec = make_spec();
  ServiceConfig no_deadline = base_config();
  no_deadline.deadline = 0.0;
  EXPECT_THROW(PipelineService(spec, synthetic_stages(spec), no_deadline),
               std::logic_error);

  ServiceConfig tight = base_config();
  tight.deadline = 50.0;  // below the minimal budget of 60
  EXPECT_THROW(PipelineService(spec, synthetic_stages(spec), tight),
               std::logic_error);

  ServiceConfig no_capacity = base_config();
  no_capacity.session_capacity = 0;
  EXPECT_THROW(PipelineService(spec, synthetic_stages(spec), no_capacity),
               std::logic_error);

  // Stage arity must match the pipeline.
  EXPECT_THROW(PipelineService(spec, std::vector<runtime::StageFn>{},
                               base_config()),
               std::logic_error);

  // Multi-shard construction needs a factory: stateful stages cannot be
  // shared across shard workers.
  ServiceConfig sharded = base_config();
  sharded.shards = 2;
  EXPECT_THROW(PipelineService(spec, synthetic_stages(spec), sharded),
               std::logic_error);

  // Each shard executes sequentially on its worker: exec_threads must be 1.
  for (const std::size_t threads : {std::size_t{0}, std::size_t{2}}) {
    ServiceConfig parallel = base_config();
    parallel.exec_threads = threads;
    EXPECT_THROW(PipelineService(spec, synthetic_stages(spec), parallel),
                 std::logic_error)
        << "exec_threads " << threads;
  }
}

}  // namespace
}  // namespace ripple::service
