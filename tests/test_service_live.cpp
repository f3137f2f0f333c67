// PipelineService: single-threaded deterministic paths (drain_once
// conservation, backpressure, session lifecycle, shed-newest-first, the
// shed-stream liveness tick and failed-batch accounting) plus the
// multi-threaded soak the CI TSan job runs to validate the lock/atomic
// discipline.
#include <gtest/gtest.h>

#include <any>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
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
  // Collapse the virtual clock: every wall-clock gap maps to ~0 cycles, so
  // the observed inter-arrival gaps clamp to epsilon and the estimator
  // decays deterministically toward overload regardless of host timing.
  config.cycles_per_us = 1e-6;
  PipelineService service(spec, synthetic_stages(spec), config);
  const SessionId oldest = service.open_session();
  const SessionId newest = service.open_session();

  // 35 near-simultaneous arrivals: the EWMA decays to 20 * 0.95^35 ~ 3.33,
  // between half the floor (2.5) and the floor (5), so the controller admits
  // exactly one of the two sessions — the oldest.
  EXPECT_EQ(service.submit(oldest, make_items(35)).accepted, 35u);
  EXPECT_EQ(service.drain_once(), 35u);
  ASSERT_TRUE(service.current_plan()->shedding);

  const SubmitOutcome admitted = service.submit(oldest, make_items(10));
  EXPECT_EQ(admitted.accepted, 10u);
  EXPECT_EQ(admitted.shed, 0u);
  const SubmitOutcome rejected = service.submit(newest, make_items(10));
  EXPECT_EQ(rejected.shed, 10u);
  EXPECT_EQ(rejected.accepted, 0u);

  // The next drain sees 20 more epsilon gaps (admitted and shed arrivals
  // both feed the estimator): the EWMA falls below half the floor and the
  // gate closes completely.
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
  EXPECT_EQ(stats.shed, 13u);
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
      // Quantile reads race the worker's observe_gap on purpose: the window
      // is atomic slots, so TSan validates the estimator's reader contract.
      ASSERT_GE(service.controller().estimator().gap_quantile(0.9), 0.0);
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
        // Races each shard worker's observe_gap; safe by the atomic-slot
        // window contract (TSan-checked here).
        ASSERT_GE(service.controller(s).estimator().gap_quantile(0.5), 0.0);
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
// counted as failed rather than dropped silently, and the service keeps
// draining later submissions. executed_items still counts the failed batch,
// so accepted == executed conservation holds.
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
  EXPECT_EQ(stats.failed_items, kBatch);
  EXPECT_EQ(stats.executed_items, kBatch);
  EXPECT_EQ(stats.sink_outputs, 0u);
  const ShardStats shard = service.shard_stats(0);
  EXPECT_EQ(shard.failed_batches, 1u);
  EXPECT_EQ(shard.failed_items, kBatch);

  ASSERT_EQ(service.submit(session, make_items(kBatch)).accepted, kBatch);
  EXPECT_EQ(service.drain_once(), kBatch);
  stats = service.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.failed_batches, 1u);
  EXPECT_EQ(stats.failed_items, kBatch);
  EXPECT_EQ(stats.executed_items, stats.accepted);
  EXPECT_EQ(stats.sink_outputs, 2 * kBatch);
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
