// Lockstep random streams: kStreamLanes xoshiro256** generators held side by
// side, one per trial of a lockstep trial group (sim/enforced_sim.hpp).
//
// The state is stored word-major — word[w][lane] — so one vector register
// holds the same state word of every lane and a vector kernel steps all
// lanes at once (dist/lane_kernels.hpp). Lane k, read back through get(k),
// is exactly the Xoshiro256 it was seeded as, advanced by the draws taken
// from it: the lockstep never changes any lane's stream.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "dist/rng.hpp"

namespace ripple::dist {

/// Streams per lockstep group: one AVX-512 register of 64-bit state words.
inline constexpr std::size_t kStreamLanes = 8;

struct alignas(64) LaneStreams {
  std::uint64_t word[4][kStreamLanes] = {};

  /// Lane `lane` becomes Xoshiro256(seed).
  void seed(std::size_t lane, std::uint64_t seed) { set(lane, Xoshiro256(seed)); }

  /// Lane `lane` as a scalar generator.
  Xoshiro256 get(std::size_t lane) const {
    Xoshiro256 rng(0);
    rng.set_state({word[0][lane], word[1][lane], word[2][lane], word[3][lane]});
    return rng;
  }

  /// Store a scalar generator back into lane `lane`.
  void set(std::size_t lane, const Xoshiro256& rng) {
    const std::array<std::uint64_t, 4>& state = rng.state();
    for (std::size_t w = 0; w < 4; ++w) word[w][lane] = state[w];
  }
};

}  // namespace ripple::dist
