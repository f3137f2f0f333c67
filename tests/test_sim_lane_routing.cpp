// The simulators' lane-routing helper against the per-output push loop it
// replaced: random draws up to each gain's bound (including 0, 1, the
// 16-copy block and bounds above it), lanes that straddle the ring's wrap
// point, and writes that must stay inside bundle_capacity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dist/rng.hpp"
#include "sim/lane_routing.hpp"
#include "util/ring_buffer.hpp"

namespace ripple::sim::detail {
namespace {

TEST(LaneRouting, ExpandLanesMatchesOnePushPerOutput) {
  constexpr RootId kGuard = 0xDEADBEEF;
  constexpr std::size_t kGuardSlots = 64;
  dist::Xoshiro256 rng(0x5EED);
  util::RingBuffer<RootId> from;
  RootId next_root = 0;
  std::vector<dist::OutputCount> draws;
  std::vector<RootId> bundle;
  std::size_t wrapped = 0;

  for (const dist::OutputCount max_outputs : {0u, 1u, 2u, 3u, 16u, 17u, 40u}) {
    SCOPED_TRACE(max_outputs);
    for (int round = 0; round < 400; ++round) {
      // Keep 0..200 roots queued while the head advances, so the consumed
      // lanes often cross the end of the backing array.
      while (from.size() < 1 + rng() % 200) from.push_back(next_root++);
      const auto lanes = static_cast<std::uint32_t>(1 + rng() % from.size());
      draws.resize(lanes);
      for (dist::OutputCount& draw : draws) {
        draw = static_cast<dist::OutputCount>(rng() % (max_outputs + 1));
      }
      std::vector<RootId> want;
      for (std::uint32_t k = 0; k < lanes; ++k) {
        for (dist::OutputCount o = 0; o < draws[k]; ++o) want.push_back(from[k]);
      }
      if (!from.front_spans(lanes).second.empty()) ++wrapped;

      const std::size_t capacity = bundle_capacity(lanes, max_outputs);
      bundle.assign(capacity + kGuardSlots, kGuard);
      const std::size_t written = expand_lanes(from, lanes, draws.data(),
                                               max_outputs, bundle.data());
      ASSERT_EQ(written, want.size());
      ASSERT_TRUE(std::equal(want.begin(), want.end(), bundle.begin()));
      for (std::size_t i = capacity; i < bundle.size(); ++i) {
        ASSERT_EQ(bundle[i], kGuard) << "store past bundle_capacity at " << i;
      }
      from.discard_front(lanes);
    }
  }
  EXPECT_GT(wrapped, 100u);
}

TEST(LaneRouting, CopyLanesReadsAcrossTheWrap) {
  util::RingBuffer<RootId> from(8);
  for (RootId r = 0; r < 6; ++r) from.push_back(r);
  from.discard_front(5);
  for (RootId r = 6; r < 12; ++r) from.push_back(r);  // 5..11, wrapped
  ASSERT_FALSE(from.front_spans(7).second.empty());
  std::vector<RootId> out(7);
  copy_lanes(from, 7, out.data());
  EXPECT_EQ(out, (std::vector<RootId>{5, 6, 7, 8, 9, 10, 11}));
  EXPECT_EQ(from.size(), 7u);  // left in place
}

}  // namespace
}  // namespace ripple::sim::detail
