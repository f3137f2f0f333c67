// SoA lane batches: the data layout of the vector-wide pipeline executor.
//
// A firing of node i consumes up to v lanes. Instead of handing the stage v
// type-erased std::any items one at a time (the per-item model, kept as
// the ReferenceExecutor oracle), the vector engine hands it one *dense*
// batch in structure-of-arrays form: up to kMaxLaneFields parallel u32
// columns, one value per lane per column. Items in this repo's real
// workloads are small POD tuples (a subject position; a (subject, query)
// hit; a scored hit), so a fixed register file of u32 columns covers them;
// stages agree on column meaning by convention, like a calling convention,
// and declare their input/output arity in BatchStage. Signed fields
// (alignment scores) travel bit-cast through a u32 column.
//
// Stages that cannot use columns carry std::any payloads instead
// (`carries_items`): per-item StageFn code through adapt_stage (the
// PipelineExecutor StageFn constructor), and every GraphStageFn, which
// GraphExecutor wraps the same way. The engine's queues and compaction work
// identically in both representations. An item-carrying stage reads one
// item window per in-queue — one on a chain, one per in-edge at a DAG
// merge node.
//
// Output side: a stage appends zero or more outputs per lane, in lane order,
// through a BatchEmitter. Appends are dense — surviving outputs are written
// back to back with a per-lane count vector alongside — so irregular gains
// never leave holes: the emitter *is* the compaction. SIMD kernels that
// compact internally can instead write through the raw reserve()/
// commit_lane() interface without per-item calls.
#pragma once

#include <any>
#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "util/assert.hpp"

namespace ripple::runtime {

/// A data item flowing between adapter (per-item) stages. Typed batch stages
/// use SoA columns instead and never touch std::any.
using Item = std::any;

/// Index of the pipeline input an in-flight value descends from (for
/// per-input latency and deadline accounting).
using RootId = std::uint32_t;

/// Width of the SoA register file: enough for (pos), (pos, pos) and
/// (pos, pos, score) shaped items.
inline constexpr std::size_t kMaxLaneFields = 3;

/// Bit-cast helpers for signed values carried in u32 columns.
inline std::uint32_t field_from_i32(std::int32_t value) noexcept {
  std::uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}
inline std::int32_t field_to_i32(std::uint32_t bits) noexcept {
  std::int32_t value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

/// Dense read-only view of the lanes one firing consumes. Exactly one of
/// {field columns, items} is populated, matching the stage's declared
/// representation.
struct LaneView {
  std::size_t lanes = 0;
  /// Column f base pointer (length `lanes`); null beyond the stage's input
  /// arity and for item-carrying stages.
  std::array<const std::uint32_t*, kMaxLaneFields> field{};
  /// Per-lane type-erased payloads for adapter stages; null for typed
  /// stages. The stage may move from these (each lane is consumed once).
  Item* items = nullptr;
  /// Item-carrying stages: `items` holds one window of `lanes` items per
  /// in-queue, back to back in in-queue order, so lane k of in-queue j is
  /// items[j * lanes + k]. Chain stages have one window; a DAG merge node's
  /// stage reads one matched lane from each of its in-edges.
  std::size_t item_windows = 1;
};

/// Collector for one firing's outputs: dense SoA columns (or items) plus the
/// per-lane output counts the engine needs to propagate root ids.
class BatchEmitter {
 public:
  /// Arm for a firing of `lanes` input lanes producing `field_count` columns
  /// (`carries_items` switches to the std::any representation). Storage is
  /// retained across firings.
  void reset(std::size_t lanes, std::size_t field_count, bool carries_items) {
    lanes_ = lanes;
    field_count_ = carries_items ? 0 : field_count;
    carries_items_ = carries_items;
    counts_.assign(lanes, 0);
    total_ = 0;
    for (std::size_t f = 0; f < kMaxLaneFields; ++f) cols_[f].clear();
    items_.clear();
  }

  std::size_t lanes() const noexcept { return lanes_; }
  std::size_t field_count() const noexcept { return field_count_; }
  bool carries_items() const noexcept { return carries_items_; }
  std::size_t total() const noexcept { return total_; }
  const std::uint32_t* counts() const noexcept { return counts_.data(); }
  const std::uint32_t* column(std::size_t f) const { return cols_[f].data(); }
  const Item* items() const noexcept { return items_.data(); }
  Item* items() noexcept { return items_.data(); }

  /// Append one output for input lane `lane`. Lanes must be visited in
  /// non-decreasing order (outputs stay dense and lane-sorted — this is what
  /// keeps compaction hole-free and the result order identical to the
  /// scalar engine's).
  void emit(std::size_t lane, std::uint32_t f0 = 0, std::uint32_t f1 = 0,
            std::uint32_t f2 = 0) {
    RIPPLE_ASSERT(!carries_items_, "emit() on an item-carrying emitter");
    bump(lane);
    if (field_count_ > 0) cols_[0].push_back(f0);
    if (field_count_ > 1) cols_[1].push_back(f1);
    if (field_count_ > 2) cols_[2].push_back(f2);
  }

  /// Append one type-erased output for input lane `lane` (adapter stages).
  void emit_item(std::size_t lane, Item item) {
    RIPPLE_ASSERT(carries_items_, "emit_item() on a typed emitter");
    bump(lane);
    items_.push_back(std::move(item));
  }

  // --- Raw kernel interface -------------------------------------------------
  // SIMD kernels compact survivors themselves: they grab column cursors
  // sized for up to `n` more outputs, write `produced` values to each used
  // column, then account them lane by lane with commit_lane(). The emitter
  // stays consistent at item granularity as long as commit_lane() totals
  // match what was written.

  /// Ensure room for `n` more outputs; returns each column's append cursor.
  /// Growth is geometric: resize(total_ + n) alone would reallocate to the
  /// exact requested size on nearly every kernel call (std::vector only
  /// amortizes push_back, not resize), so a stage making many small raw
  /// reservations per firing would reallocate per call. Doubling keeps the
  /// per-firing reallocation count logarithmic, and because reset() only
  /// clear()s, a warmed emitter allocates nothing at steady state (see
  /// EmitterSteadyStateAllocationFree in tests/test_runtime_batch.cpp).
  std::array<std::uint32_t*, kMaxLaneFields> reserve(std::size_t n) {
    std::array<std::uint32_t*, kMaxLaneFields> cursors{};
    const std::size_t need = total_ + n;
    for (std::size_t f = 0; f < field_count_; ++f) {
      if (need > cols_[f].capacity()) {
        cols_[f].reserve(std::max(need, 2 * cols_[f].capacity()));
      }
      cols_[f].resize(need);
      cursors[f] = cols_[f].data() + total_;
    }
    return cursors;
  }

  /// Account `produced` already-written outputs to `lane` (non-decreasing).
  void commit_lane(std::size_t lane, std::uint32_t produced) {
    RIPPLE_ASSERT(lane < lanes_, "commit_lane() lane out of range");
    counts_[lane] += produced;
    total_ += produced;
  }

  /// Shrink columns to the committed total after raw writes (reserve() may
  /// have over-allocated).
  void finish_raw() {
    for (std::size_t f = 0; f < field_count_; ++f) cols_[f].resize(total_);
  }

 private:
  void bump(std::size_t lane) {
    RIPPLE_ASSERT(lane < lanes_, "emit lane out of range");
    ++counts_[lane];
    ++total_;
  }

  std::size_t lanes_ = 0;
  std::size_t field_count_ = 0;
  bool carries_items_ = false;
  std::array<std::vector<std::uint32_t>, kMaxLaneFields> cols_;
  std::vector<Item> items_;
  std::vector<std::uint32_t> counts_;
  std::size_t total_ = 0;
};

/// One vector-wide stage invocation: read up to v lanes, append outputs.
using BatchStageFn = std::function<void(const LaneView&, BatchEmitter&)>;

/// A pipeline stage in the vector engine, with its data-shape declaration.
struct BatchStage {
  BatchStageFn fn;
  /// u32 columns this stage reads per lane (0..kMaxLaneFields).
  std::uint8_t input_fields = 1;
  /// u32 columns this stage writes per output.
  std::uint8_t output_fields = 1;
  /// True for adapter-wrapped per-item stages: lanes carry std::any items
  /// instead of columns, on both sides.
  bool carries_items = false;
  /// Optional: build a collectible Item from one sink output's fields (used
  /// only for ExecutionMetrics::results at the sink). Defaults to an Item
  /// holding std::array<std::uint32_t, kMaxLaneFields>.
  std::function<Item(const std::uint32_t* fields)> materialize;
};

}  // namespace ripple::runtime
