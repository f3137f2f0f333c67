// How the simulators move items between nodes: the one lane-routing helper
// the enforced-waits, greedy and quantum-scheduled simulators share.
//
// An item in the simulators is only the id of the root input it descends
// from. A firing consumes `lanes` items from the front of an in-queue, draws
// one output count per lane from the out-queue's gain model, and writes each
// lane's root that many times, in lane order, into a bundle sized for the
// firing's worst case; the bundle then lands on the out-queue with one bulk
// RingBuffer::append (at the firing's end in the enforced loop, at once in
// the greedy loop).
//
// Per lane that is one indexed store and no data-dependent branch when a
// gain yields at most one output (Bernoulli filters, deterministic(1)): the
// lane's root is stored at the write position unconditionally and the
// position advances by the draw, so a dropped lane is overwritten by the
// next one. Larger gains store whole blocks of kFillBlock copies (a few
// vector stores each) the same way, one block per lane while the draw fits
// in it, as every draw of the censored Poisson expansion (capped at 16)
// does. Both paths yield the sequence a push per output would.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "dist/gain.hpp"
#include "util/ring_buffer.hpp"

namespace ripple::sim::detail {

/// Root-input identifier carried by every simulated item, so exits can be
/// attributed to their input.
using RootId = std::uint32_t;

/// Copies per store block on the multi-output path.
constexpr dist::OutputCount kFillBlock = 16;

/// Bundle slots one firing of `lanes` lanes can need on an out-queue whose
/// gain yields at most `max_outputs` per lane. Stores may run past the kept
/// outputs: the single-output path stores every lane, kept or not, and the
/// multi-output path up to a block past the last kept copy.
inline std::size_t bundle_capacity(std::uint32_t lanes,
                                   dist::OutputCount max_outputs) {
  return static_cast<std::size_t>(lanes) *
             std::max<dist::OutputCount>(max_outputs, 1) +
         (max_outputs > 1 ? kFillBlock : 0);
}

/// Writes roots[k] draws[k * DrawStride] times, for k in [0, n),
/// contiguously at `out` and returns the number written. `out` needs
/// bundle_capacity(n, max_outputs) slots; `max_outputs` bounds every draw.
/// A stride above 1 reads one column of the row-per-draw layout of
/// GainDistribution::sample_lanes.
template <std::size_t DrawStride = 1>
std::size_t expand_run(const RootId* roots, const dist::OutputCount* draws,
                       std::size_t n, dist::OutputCount max_outputs,
                       RootId* out) {
  // Each lane's root and draw are read before any store: `out` has their
  // element type, so a store could otherwise force them to be re-read.
  std::size_t pos = 0;
  if (max_outputs <= 1) {
    for (std::size_t k = 0; k < n; ++k) {
      const RootId root = roots[k];
      const std::size_t draw = draws[k * DrawStride];
      out[pos] = root;
      pos += draw;
    }
  } else {
    for (std::size_t k = 0; k < n; ++k) {
      const RootId root = roots[k];
      const std::size_t draw = draws[k * DrawStride];
      std::size_t filled = 0;
      do {
        std::fill_n(out + pos + filled, kFillBlock, root);
        filled += kFillBlock;
      } while (filled < draw);
      pos += draw;
    }
  }
  return pos;
}

/// Expands the first `lanes` roots of `from` (left in place) per `draws`
/// into `out`, as expand_run, and returns the number written.
template <std::size_t DrawStride = 1>
std::size_t expand_lanes(const util::RingBuffer<RootId>& from,
                         std::uint32_t lanes, const dist::OutputCount* draws,
                         dist::OutputCount max_outputs, RootId* out) {
  const auto [head, wrapped] = from.front_spans(lanes);
  const std::size_t written = expand_run<DrawStride>(
      head.data(), draws, head.size(), max_outputs, out);
  return written + expand_run<DrawStride>(
                       wrapped.data(), draws + head.size() * DrawStride,
                       wrapped.size(), max_outputs, out + written);
}

/// Copies the first `lanes` roots of `from` (left in place) to `out`.
inline void copy_lanes(const util::RingBuffer<RootId>& from,
                       std::uint32_t lanes, RootId* out) {
  const auto [head, wrapped] = from.front_spans(lanes);
  std::copy(wrapped.begin(), wrapped.end(),
            std::copy(head.begin(), head.end(), out));
}

/// max_outputs() of every queue's gain (0 for the arrival queue, which no
/// node writes), read once per trial instead of once per firing.
inline std::vector<dist::OutputCount> max_outputs_per_queue(
    const std::vector<dist::GainPtr>& gains) {
  std::vector<dist::OutputCount> max_outputs(gains.size(), 0);
  for (std::size_t q = 0; q < gains.size(); ++q) {
    if (gains[q]) max_outputs[q] = gains[q]->max_outputs();
  }
  return max_outputs;
}

}  // namespace ripple::sim::detail
