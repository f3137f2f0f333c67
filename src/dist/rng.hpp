// Deterministic, portable random number generation.
//
// We avoid std::*_distribution because their outputs are implementation
// defined; every sampling routine here is specified bit-for-bit so that
// experiment outputs are reproducible across compilers and platforms.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>

namespace ripple::dist {

/// SplitMix64: used to expand seeds and to derive independent stream seeds
/// from (experiment, cell, trial) coordinates.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: the workhorse generator for simulation sampling.
/// Satisfies std::uniform_random_bit_generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& word : state_) word = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 random bits.
  double uniform01() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t uniform_below(std::uint64_t bound) noexcept;

  /// The four state words, for code that steps several generators side by
  /// side (dist/lane_streams.hpp) and hands a stream back to this class.
  const std::array<std::uint64_t, 4>& state() const noexcept { return state_; }
  void set_state(const std::array<std::uint64_t, 4>& state) noexcept {
    state_ = state;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Mix an arbitrary list of coordinates into one seed. Different coordinate
/// tuples give (with overwhelming probability) independent streams.
std::uint64_t derive_seed(std::initializer_list<std::uint64_t> coordinates) noexcept;

}  // namespace ripple::dist
