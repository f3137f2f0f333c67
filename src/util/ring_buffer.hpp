// Reusable power-of-two ring buffer (FIFO).
//
// The simulators keep one queue per pipeline node and push/pop root ids tens
// of millions of times per sweep; std::deque pays a pointer-chasing block map
// and per-block allocation on that path. This buffer keeps one contiguous
// power-of-two array, masks instead of wrapping branches, and only touches
// the allocator when it grows (capacity is retained across trials when the
// buffer is reused). Batch producers and consumers move runs of elements:
// append() copies a run in as at most two contiguous stores, and
// front_spans() exposes the oldest elements as at most two contiguous reads.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace ripple::util {

template <typename T>
class RingBuffer {
 public:
  RingBuffer() = default;

  /// Pre-size the backing store (rounded up to a power of two).
  explicit RingBuffer(std::size_t capacity) { reserve(capacity); }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return data_.size(); }

  /// Ensure room for at least `capacity` elements without regrowing.
  void reserve(std::size_t capacity) {
    if (capacity > data_.size()) grow_to(round_up_pow2(capacity));
  }

  void push_back(T value) {
    if (size_ == data_.size()) grow_to(data_.empty() ? kMinCapacity : data_.size() * 2);
    data_[(head_ + size_) & mask_] = std::move(value);
    ++size_;
  }

  /// Push `n` elements from `values` in order (n = 0 is a no-op). `values`
  /// must not point into this buffer.
  void append(const T* values, std::size_t n) {
    if (size_ + n > data_.size()) grow_to(round_up_pow2(size_ + n));
    const std::size_t tail = (head_ + size_) & mask_;
    const std::size_t first = std::min(n, data_.size() - tail);
    std::copy_n(values, first, data_.data() + tail);
    std::copy_n(values + first, n - first, data_.data());
    size_ += n;
  }

  /// The first n elements, oldest first, as two contiguous runs: the second
  /// is empty unless the run crosses the end of the backing array.
  std::pair<std::span<const T>, std::span<const T>> front_spans(
      std::size_t n) const {
    RIPPLE_REQUIRE(n <= size_, "front_spans() past end of RingBuffer");
    const std::size_t first = std::min(n, data_.size() - head_);
    return {std::span<const T>(data_.data() + head_, first),
            std::span<const T>(data_.data(), n - first)};
  }

  const T& front() const {
    RIPPLE_REQUIRE(size_ > 0, "front() on empty RingBuffer");
    return data_[head_];
  }

  T pop_front() {
    RIPPLE_REQUIRE(size_ > 0, "pop_front() on empty RingBuffer");
    T value = std::move(data_[head_]);
    head_ = (head_ + 1) & mask_;
    --size_;
    return value;
  }

  /// Element i positions from the front (0 = front()).
  const T& operator[](std::size_t i) const { return data_[(head_ + i) & mask_]; }

  /// Drop the first n elements in one step (batch consumers read via
  /// operator[] and then discard, skipping per-element pop bookkeeping).
  void discard_front(std::size_t n) {
    RIPPLE_REQUIRE(n <= size_, "discard_front() past end of RingBuffer");
    head_ = (head_ + n) & mask_;
    size_ -= n;
  }

  /// Drop all elements; capacity is retained.
  void clear() noexcept {
    head_ = 0;
    size_ = 0;
  }

 private:
  static constexpr std::size_t kMinCapacity = 8;

  static std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = kMinCapacity;
    while (p < n) p *= 2;
    return p;
  }

  void grow_to(std::size_t new_capacity) {
    std::vector<T> fresh(new_capacity);
    for (std::size_t i = 0; i < size_; ++i) {
      fresh[i] = std::move(data_[(head_ + i) & mask_]);
    }
    data_ = std::move(fresh);
    head_ = 0;
    mask_ = data_.size() - 1;
  }

  std::vector<T> data_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace ripple::util
