// Lockstep gain draws: the vector kernels behind GainDistribution::
// sample_lanes (dist/gain.hpp), registered in the kernel registry
// (device/kernel_registry.hpp, docs/KERNELS.md) with a scalar baseline, an
// AVX2 and an AVX-512 variant each.
//
// Every kernel steps the kStreamLanes xoshiro256** streams of a LaneStreams
// together, one output per lane per row, and advances lane k only on rows
// i < counts[k]; so lane k's stream and values are exactly those of
// counts[k] scalar draws from it. Row i of the output holds draw i of every
// lane: out[i * kStreamLanes + k]. Cells of a lane past its count are
// written with unspecified values, so `out` needs
// max(counts) * kStreamLanes slots.
//
//   dist.bernoulli_lanes — 1 when the draw's top 53 bits are below
//                          `threshold` (= ceil(p * 2^53)), else 0: the
//                          BernoulliGain decision;
//   dist.cdf_lanes       — the number of `thresholds` (nondecreasing,
//                          ceil(cdf[j] * 2^53) for every CDF entry but the
//                          last) at or below the draw's top 53 bits: the
//                          first k with uniform01() < cdf[k], which is the
//                          CdfTable inversion (censored Poisson's draws);
//                          the scalar body runs that inversion itself.
#pragma once

#include <cstddef>
#include <cstdint>

#include "dist/gain.hpp"
#include "dist/lane_streams.hpp"

namespace ripple::dist::lanes {

using BernoulliLanesFn = void (*)(LaneStreams& streams,
                                  const std::uint32_t* counts,
                                  std::uint64_t threshold, OutputCount* out);
using CdfLanesFn = void (*)(LaneStreams& streams, const std::uint32_t* counts,
                            const detail::CdfTable& table,
                            const std::uint64_t* thresholds,
                            std::size_t threshold_count, OutputCount* out);

/// Register both kernels (idempotent). The wrappers below call it.
void register_kernels();

/// Resolve through the registry and run dist.bernoulli_lanes.
void bernoulli(LaneStreams& streams, const std::uint32_t* counts,
               std::uint64_t threshold, OutputCount* out);

/// Resolve through the registry and run dist.cdf_lanes. `table` and
/// `thresholds` describe the same CDF: the scalar body inverts each lane's
/// draws through the table, the vector bodies compare every draw with every
/// threshold, so callers keep the count small
/// (CensoredPoissonGain::kMaxLaneCap).
void cdf(LaneStreams& streams, const std::uint32_t* counts,
         const detail::CdfTable& table, const std::uint64_t* thresholds,
         std::size_t threshold_count, OutputCount* out);

}  // namespace ripple::dist::lanes
