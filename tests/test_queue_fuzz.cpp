// Adversarial wraparound fuzz for the two ring structures the runtime leans
// on: util::RingBuffer and runtime::SoaQueue. Irregular push/pop batch sizes
// driven near capacity force head wraps, growth mid-stream, and the
// gather-front wrap-fixing copy; every element is checked against a plain
// std::deque oracle.
#include <gtest/gtest.h>

#include <any>
#include <cstdint>
#include <deque>
#include <vector>

#include "dist/rng.hpp"
#include "runtime/lane_batch.hpp"
#include "runtime/soa_queue.hpp"
#include "util/ring_buffer.hpp"

namespace ripple {
namespace {

// ---------------------------------------------------------------------------
// util::RingBuffer vs deque oracle
// ---------------------------------------------------------------------------

TEST(RingBufferFuzzTest, IrregularBatchesMatchDequeOracle) {
  dist::Xoshiro256 rng(0xF00D);
  util::RingBuffer<std::uint64_t> ring;
  std::deque<std::uint64_t> oracle;
  std::uint64_t next_value = 0;

  for (int round = 0; round < 20000; ++round) {
    // Skew pushes early, pops late, so occupancy sweeps up then down and the
    // head crosses the wrap point at many different capacities.
    const bool push_biased = round < 10000;
    const auto action = rng() % 100;
    if ((push_biased && action < 70) || (!push_biased && action < 30)) {
      const std::size_t n = 1 + rng() % 17;
      for (std::size_t i = 0; i < n; ++i) {
        ring.push_back(next_value);
        oracle.push_back(next_value);
        ++next_value;
      }
    } else if (!oracle.empty()) {
      const std::size_t n = 1 + rng() % std::min<std::size_t>(
                                    oracle.size(), 13);
      if (action % 2 == 0) {
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(ring.pop_front(), oracle.front());
          oracle.pop_front();
        }
      } else {
        // Batch-consumer path: random-access then discard in one step.
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(ring[i], oracle[i]);
        }
        ring.discard_front(n);
        oracle.erase(oracle.begin(),
                     oracle.begin() + static_cast<std::ptrdiff_t>(n));
      }
    }
    ASSERT_EQ(ring.size(), oracle.size());
    if (!oracle.empty()) {
      ASSERT_EQ(ring.front(), oracle.front());
      ASSERT_EQ(ring[oracle.size() - 1], oracle.back());
    }
  }
}

TEST(RingBufferFuzzTest, NearCapacityOscillation) {
  // Hold occupancy within one element of a power-of-two capacity while the
  // head advances: every push lands exactly on the wrap seam.
  util::RingBuffer<std::uint32_t> ring(64);
  std::deque<std::uint32_t> oracle;
  std::uint32_t next_value = 0;
  for (std::uint32_t i = 0; i < 63; ++i) {
    ring.push_back(next_value);
    oracle.push_back(next_value);
    ++next_value;
  }
  const std::size_t capacity_before = ring.capacity();
  for (int step = 0; step < 4096; ++step) {
    ring.push_back(next_value);
    oracle.push_back(next_value);
    ++next_value;
    ASSERT_EQ(ring.pop_front(), oracle.front());
    oracle.pop_front();
    ASSERT_EQ(ring.size(), oracle.size());
    ASSERT_EQ(ring[62], oracle[62]);
  }
  EXPECT_EQ(ring.capacity(), capacity_before);  // never grew
}

/// Concatenated front_spans(n) of `ring` must equal the oracle's first n.
void expect_front_spans(const util::RingBuffer<std::uint32_t>& ring,
                        const std::deque<std::uint32_t>& oracle,
                        std::size_t n) {
  const auto [first, second] = ring.front_spans(n);
  ASSERT_EQ(first.size() + second.size(), n);
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_EQ(first[i], oracle[i]);
  }
  for (std::size_t i = 0; i < second.size(); ++i) {
    ASSERT_EQ(second[i], oracle[first.size() + i]);
  }
}

TEST(RingBufferFuzzTest, BulkAppendAndFrontSpansMatchDequeOracle) {
  // Runs of 0..40 elements against a buffer drained in batches of 0..61,
  // so appends straddle the wrap point, grow the buffer while its contents
  // are wrapped, and are sometimes empty.
  dist::Xoshiro256 rng(0xB0CA);
  util::RingBuffer<std::uint32_t> ring;
  std::deque<std::uint32_t> oracle;
  std::vector<std::uint32_t> run;
  std::uint32_t next_value = 0;
  std::size_t wrapped_appends = 0;
  std::size_t wrapped_growths = 0;
  std::size_t empty_appends = 0;

  for (int round = 0; round < 20000; ++round) {
    // Mostly drain-leaning, so the buffer stays small and runs cross its
    // end often; short push-leaning bursts grow it while it is wrapped.
    const bool push_biased = round % 2000 < 200;
    const auto action = rng() % 100;
    if ((push_biased && action < 70) || (!push_biased && action < 55)) {
      run.resize(rng() % 41);
      for (std::uint32_t& value : run) value = next_value++;
      // Where this run starts and ends relative to the backing array, read
      // through front_spans (the second span is non-empty iff wrapped).
      const bool wrapped_before = !ring.front_spans(ring.size()).second.empty();
      const std::size_t capacity_before = ring.capacity();
      ring.append(run.data(), run.size());
      oracle.insert(oracle.end(), run.begin(), run.end());
      if (run.empty()) ++empty_appends;
      if (ring.capacity() != capacity_before && wrapped_before) {
        ++wrapped_growths;
      }
      if (ring.capacity() == capacity_before &&
          !ring.front_spans(ring.size()).second.empty() && !run.empty() &&
          ring.front_spans(ring.size() - run.size()).second.empty()) {
        ++wrapped_appends;  // this run crossed the end of the array
      }
    } else if (!oracle.empty()) {
      const std::size_t n =
          rng() % (std::min<std::size_t>(oracle.size(), 61) + 1);
      expect_front_spans(ring, oracle, n);
      ring.discard_front(n);
      oracle.erase(oracle.begin(),
                   oracle.begin() + static_cast<std::ptrdiff_t>(n));
    }
    ASSERT_EQ(ring.size(), oracle.size());
    expect_front_spans(ring, oracle, oracle.size());
  }
  // The seed must actually reach every case this test exists for.
  EXPECT_GT(wrapped_appends, 100u);
  EXPECT_GT(wrapped_growths, 0u);
  EXPECT_GT(empty_appends, 100u);
}

TEST(RingBufferFuzzTest, AppendIntoEmptyAndZeroLengthEdges) {
  util::RingBuffer<std::uint32_t> ring;
  ring.append(nullptr, 0);  // no storage yet, nothing to copy
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 0u);
  const auto [first, second] = ring.front_spans(0);
  EXPECT_TRUE(first.empty());
  EXPECT_TRUE(second.empty());
  EXPECT_THROW(ring.front_spans(1), std::exception);

  // Fill exactly to capacity with the head mid-array, then append one more:
  // growth must unwrap the contents before the new element lands.
  const std::uint32_t values[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  ring.append(values, 6);
  ring.discard_front(5);
  ring.append(values + 6, 4);
  ring.append(values, 3);
  ASSERT_EQ(ring.size(), ring.capacity());
  EXPECT_FALSE(ring.front_spans(ring.size()).second.empty());
  ring.append(values + 9, 1);
  const std::deque<std::uint32_t> want = {5, 6, 7, 8, 9, 0, 1, 2, 9};
  expect_front_spans(ring, want, want.size());
}

// ---------------------------------------------------------------------------
// runtime::SoaQueue vs oracle (typed and item representations)
// ---------------------------------------------------------------------------

struct TypedLane {
  std::uint32_t f0, f1;
  runtime::RootId root;
};

TEST(SoaQueueFuzzTest, TypedWraparoundMatchesOracle) {
  dist::Xoshiro256 rng(0xBEEF);
  runtime::SoaQueue queue;
  queue.configure(/*field_count=*/2, /*carries_items=*/false);
  std::deque<TypedLane> oracle;
  runtime::SoaQueue::GatherScratch scratch;
  std::uint32_t next_value = 0;

  for (int round = 0; round < 8000; ++round) {
    const auto action = rng() % 100;
    if (action < 55) {
      const std::size_t n = 1 + rng() % 9;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t fields[2] = {next_value, next_value * 7 + 1};
        queue.push_fields(fields, runtime::RootId{next_value});
        oracle.push_back({fields[0], fields[1], runtime::RootId{next_value}});
        ++next_value;
      }
    } else if (!oracle.empty()) {
      // Firing-style consume: gather up to v front lanes, verify the dense
      // window (wrapped or not), then discard.
      const std::size_t v =
          1 + rng() % std::min<std::size_t>(oracle.size(), 8);
      const auto window = queue.gather_front(v, scratch);
      for (std::size_t k = 0; k < v; ++k) {
        ASSERT_EQ(window.field[0][k], oracle[k].f0);
        ASSERT_EQ(window.field[1][k], oracle[k].f1);
        ASSERT_EQ(window.roots[k], oracle[k].root);
      }
      queue.discard_front(v);
      oracle.erase(oracle.begin(), oracle.begin() + static_cast<std::ptrdiff_t>(v));
    }
    ASSERT_EQ(queue.size(), oracle.size());
  }
}

TEST(SoaQueueFuzzTest, AppendFromEmitterAcrossWrapSeam) {
  dist::Xoshiro256 rng(0xCAFE);
  runtime::SoaQueue queue;
  queue.configure(1, false);
  std::deque<TypedLane> oracle;
  runtime::SoaQueue::GatherScratch scratch;
  runtime::BatchEmitter emitter;
  std::uint32_t next_value = 0;

  for (int round = 0; round < 6000; ++round) {
    // A firing consumes up to 4 lanes and emits 0-3 outputs per lane via the
    // emitter (the compaction path), exercising append()'s wrap-split copy.
    const std::size_t lanes = 1 + rng() % 4;
    std::vector<runtime::RootId> roots;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      roots.push_back(runtime::RootId{next_value + 1000000});
    }
    emitter.reset(lanes, 1, false);
    std::vector<TypedLane> emitted;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const std::uint32_t outputs = rng() % 4;
      for (std::uint32_t c = 0; c < outputs; ++c) {
        emitter.emit(lane, next_value);
        emitted.push_back({next_value, 0, roots[lane]});
        ++next_value;
      }
    }
    queue.append(emitter, roots.data());
    for (const TypedLane& lane : emitted) oracle.push_back(lane);

    // Drain roughly as fast as we fill, keeping occupancy near the seam.
    if (!oracle.empty() && round % 2 == 1) {
      const std::size_t v =
          1 + rng() % std::min<std::size_t>(oracle.size(), 5);
      const auto window = queue.gather_front(v, scratch);
      for (std::size_t k = 0; k < v; ++k) {
        ASSERT_EQ(window.field[0][k], oracle[k].f0);
        ASSERT_EQ(window.roots[k], oracle[k].root);
      }
      queue.discard_front(v);
      oracle.erase(oracle.begin(), oracle.begin() + static_cast<std::ptrdiff_t>(v));
    }
    ASSERT_EQ(queue.size(), oracle.size());
  }
}

TEST(SoaQueueFuzzTest, ItemQueueWraparound) {
  dist::Xoshiro256 rng(0xD1CE);
  runtime::SoaQueue queue;
  queue.configure(0, /*carries_items=*/true);
  std::deque<std::pair<std::uint64_t, runtime::RootId>> oracle;
  std::uint64_t next_value = 0;

  for (int round = 0; round < 8000; ++round) {
    const auto action = rng() % 100;
    if (action < 55) {
      const std::size_t n = 1 + rng() % 7;
      for (std::size_t i = 0; i < n; ++i) {
        queue.push_item(runtime::Item{next_value},
                        runtime::RootId{static_cast<std::uint32_t>(next_value)});
        oracle.emplace_back(next_value,
                            runtime::RootId{static_cast<std::uint32_t>(next_value)});
        ++next_value;
      }
    } else if (!oracle.empty()) {
      const std::size_t v =
          1 + rng() % std::min<std::size_t>(oracle.size(), 6);
      for (std::size_t k = 0; k < v; ++k) {
        ASSERT_EQ(std::any_cast<std::uint64_t>(queue.item_at(k)),
                  oracle[k].first);
        ASSERT_EQ(queue.root_at(k), oracle[k].second);
      }
      queue.discard_front(v);
      oracle.erase(oracle.begin(), oracle.begin() + static_cast<std::ptrdiff_t>(v));
    }
    ASSERT_EQ(queue.size(), oracle.size());
  }
}

}  // namespace
}  // namespace ripple
