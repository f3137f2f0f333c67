// Gain distributions: the per-input output-count models of paper Section 6.1.
//
// A node's *gain* is the (stochastic) number of output items it produces per
// input item. The paper models filter-like stages as Bernoulli(g) and the
// expanding BLAST stage as Poisson(g) censored at the stage's hard output
// limit u = 16.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dist/lane_streams.hpp"
#include "dist/rng.hpp"

namespace ripple::dist {

/// Number of outputs one input produces at a node.
using OutputCount = std::uint32_t;

namespace detail {

/// Precomputed inversion table for a finite CDF over 0..K.
///
/// Sampling maps a uniform u to the first k with u < cdf[k]. The guide index
/// quantizes [0,1) into buckets and records, per bucket, the first k any u in
/// that bucket can map to, so a draw touches one or two CDF entries instead
/// of scanning from zero. The u -> k mapping is bit-for-bit identical to the
/// plain linear scan, so precomputation never changes sampled streams.
class CdfTable {
 public:
  CdfTable() = default;
  explicit CdfTable(std::vector<double> cdf) { build(std::move(cdf)); }

  void build(std::vector<double> cdf);

  OutputCount sample(Xoshiro256& rng) const noexcept {
    return lookup(rng.uniform01());
  }

  /// n successive sample() draws into `out`, with the generator held in a
  /// local for the whole loop (the stores to `out` cannot touch it).
  void sample_n(Xoshiro256& rng, OutputCount* out,
                std::size_t n) const noexcept {
    Xoshiro256 local = rng;
    for (std::size_t i = 0; i < n; ++i) out[i] = lookup(local.uniform01());
    rng = local;
  }

  const std::vector<double>& cdf() const noexcept { return cdf_; }

 private:
  static constexpr std::size_t kGuideSize = 64;

  OutputCount lookup(double u) const noexcept {
    // uniform01() contracts u < 1.0, but clamp the bucket anyway so an RNG
    // swap that can return exactly 1.0 reads the last guide entry instead of
    // one past the array.
    std::size_t bucket = static_cast<std::size_t>(u * kGuideSize);
    if (bucket >= kGuideSize) bucket = kGuideSize - 1;
    std::size_t k = guide_[bucket];
    while (k + 1 < cdf_.size() && u >= cdf_[k]) ++k;
    return static_cast<OutputCount>(k);
  }

  std::vector<double> cdf_;
  std::vector<std::uint32_t> guide_;  // bucket -> first reachable k
};

}  // namespace detail

/// Abstract per-input gain model. Implementations must be immutable after
/// construction so one instance can be shared across simulation threads
/// (each thread carries its own RNG).
class GainDistribution {
 public:
  virtual ~GainDistribution() = default;

  /// Draw the number of outputs for one input item.
  virtual OutputCount sample(Xoshiro256& rng) const = 0;

  /// Draw `n` output counts into `out` (one virtual dispatch per firing
  /// instead of one per item). Consumes exactly the same RNG stream, in the
  /// same order, as n successive sample() calls.
  virtual void sample_n(Xoshiro256& rng, OutputCount* out, std::size_t n) const;

  /// Lockstep draws: for every lane k, counts[k] output counts from lane k's
  /// stream into out[i * kStreamLanes + k], i < counts[k] (row i holds draw
  /// i of every lane; `out` needs max(counts) * kStreamLanes slots, and
  /// cells past a lane's count are unspecified). Lane k's stream and values
  /// are exactly those of sample_n(lane k, ..., counts[k]). The default
  /// runs sample_n on each lane's stream in turn; Bernoulli and censored
  /// Poisson draw every lane at once (dist/lane_kernels.hpp).
  virtual void sample_lanes(LaneStreams& streams, const std::uint32_t* counts,
                            OutputCount* out) const;

  /// Exact expected outputs per input (the paper's g_i).
  virtual double mean() const = 0;

  /// Exact variance of outputs per input.
  virtual double variance() const = 0;

  /// Hard upper bound on outputs per input (the paper's u for stage 1).
  virtual OutputCount max_outputs() const = 0;

  virtual std::string name() const = 0;
};

using GainPtr = std::shared_ptr<const GainDistribution>;

/// Always exactly k outputs (k = 1 models a regular node).
class DeterministicGain final : public GainDistribution {
 public:
  explicit DeterministicGain(OutputCount k);
  OutputCount sample(Xoshiro256& rng) const override;
  void sample_n(Xoshiro256& rng, OutputCount* out, std::size_t n) const override;
  double mean() const override;
  double variance() const override;
  OutputCount max_outputs() const override;
  std::string name() const override;

  OutputCount count() const noexcept { return k_; }

 private:
  OutputCount k_;
};

/// One output with probability p, else zero (paper's filter stages).
class BernoulliGain final : public GainDistribution {
 public:
  explicit BernoulliGain(double p);
  OutputCount sample(Xoshiro256& rng) const override;
  void sample_n(Xoshiro256& rng, OutputCount* out, std::size_t n) const override;
  void sample_lanes(LaneStreams& streams, const std::uint32_t* counts,
                    OutputCount* out) const override;
  double mean() const override;
  double variance() const override;
  OutputCount max_outputs() const override;
  std::string name() const override;

  double probability() const noexcept { return p_; }

 private:
  /// uniform01() < p, decided on the generator's 53 top bits.
  bool draw(Xoshiro256& rng) const noexcept {
    return (rng() >> 11) < threshold_;
  }

  double p_;
  /// ceil(p * 2^53): uniform01() is (x >> 11) * 2^-53, p * 2^53 is exact (a
  /// power-of-two scaling of p in [0, 1]), and an integer is below a real
  /// exactly when it is below the real's ceiling, so draw() is bit-for-bit
  /// the double comparison it replaces.
  std::uint64_t threshold_ = 0;
};

/// Poisson(lambda) censored at cap: values above cap are reported as cap
/// (paper's expanding stage, lambda = 1.92, cap = u = 16).
///
/// mean()/variance() are the *censored* moments, computed exactly at
/// construction, so analytic predictions line up with what the simulator
/// actually samples.
class CensoredPoissonGain final : public GainDistribution {
 public:
  CensoredPoissonGain(double lambda, OutputCount cap);
  OutputCount sample(Xoshiro256& rng) const override;
  void sample_n(Xoshiro256& rng, OutputCount* out, std::size_t n) const override;
  void sample_lanes(LaneStreams& streams, const std::uint32_t* counts,
                    OutputCount* out) const override;
  double mean() const override;
  double variance() const override;
  OutputCount max_outputs() const override;
  std::string name() const override;

  double lambda() const noexcept { return lambda_; }

  /// Caps up to this draw every lane at once in sample_lanes; larger ones
  /// sample lane by lane.
  static constexpr OutputCount kMaxLaneCap = 32;

  /// ceil(P(outputs <= k) * 2^53) for k < cap (empty above kMaxLaneCap):
  /// uniform01() >= P(outputs <= k) exactly when the draw's top 53 bits are
  /// at or above threshold k, so a draw's value is the number of thresholds
  /// at or below its bits — the dist.cdf_lanes inversion.
  std::span<const std::uint64_t> lane_thresholds() const noexcept {
    return {lane_thresholds_.data(), cap_ <= kMaxLaneCap ? cap_ : 0u};
  }

  /// The guide table every scalar draw inverts through.
  const detail::CdfTable& table() const noexcept { return table_; }

 private:
  double lambda_;
  OutputCount cap_;
  std::array<std::uint64_t, kMaxLaneCap> lane_thresholds_{};
  detail::CdfTable table_;  // P(outputs <= k), k in [0, cap], with guide index
  double mean_ = 0.0;
  double variance_ = 0.0;
};

/// Geometric-tail gain: P(k) proportional to (1-p) p^k for k in [0, cap].
/// Heavier-tailed than Poisson at the same mean; used in robustness ablations.
class TruncatedGeometricGain final : public GainDistribution {
 public:
  /// Constructs the truncated geometric with the given success parameter.
  TruncatedGeometricGain(double p, OutputCount cap);

  /// Factory choosing p so the truncated mean equals `target_mean`.
  static std::shared_ptr<const TruncatedGeometricGain> with_mean(double target_mean,
                                                                 OutputCount cap);

  OutputCount sample(Xoshiro256& rng) const override;
  void sample_n(Xoshiro256& rng, OutputCount* out, std::size_t n) const override;
  double mean() const override;
  double variance() const override;
  OutputCount max_outputs() const override;
  std::string name() const override;

  double ratio() const noexcept { return p_; }

 private:
  double p_;
  OutputCount cap_;
  detail::CdfTable table_;
  double mean_ = 0.0;
  double variance_ = 0.0;
};

/// Arbitrary finite distribution over output counts 0..(weights.size()-1),
/// e.g. a measured histogram from the mini-BLAST substrate.
class EmpiricalGain final : public GainDistribution {
 public:
  explicit EmpiricalGain(std::vector<double> weights);
  OutputCount sample(Xoshiro256& rng) const override;
  void sample_n(Xoshiro256& rng, OutputCount* out, std::size_t n) const override;
  double mean() const override;
  double variance() const override;
  OutputCount max_outputs() const override;
  std::string name() const override;

  /// Reconstructed point masses (differences of the internal CDF).
  std::vector<double> weights() const;

 private:
  detail::CdfTable table_;
  double mean_ = 0.0;
  double variance_ = 0.0;
};

/// Convenience factories.
GainPtr make_deterministic(OutputCount k);
GainPtr make_bernoulli(double p);
GainPtr make_censored_poisson(double lambda, OutputCount cap);

}  // namespace ripple::dist
