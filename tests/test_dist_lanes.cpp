// Lockstep gain draws (GainDistribution::sample_lanes and the
// dist.bernoulli_lanes / dist.cdf_lanes kernels): for every gain type, at
// every per-lane count from 0 to the vector width, each lane's column and
// its stream afterwards must equal scalar sample_n on that lane's stream
// alone. Run under each dispatch level this host supports (scalar, AVX2,
// AVX-512), pinned through the registry's global override.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "device/dispatch.hpp"
#include "device/kernel_registry.hpp"
#include "dist/gain.hpp"
#include "dist/lane_kernels.hpp"
#include "dist/lane_streams.hpp"

namespace ripple::dist {
namespace {

constexpr std::uint32_t kWidth = 128;  // Table-1 v

class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(device::SimdLevel level) {
    device::set_simd_override(level);
  }
  ~ScopedSimdLevel() { device::set_simd_override(std::nullopt); }
};

struct NamedGain {
  const char* label;
  GainPtr gain;
};

std::vector<NamedGain> every_gain_type() {
  std::vector<double> long_weights(48);
  for (std::size_t k = 0; k < long_weights.size(); ++k) {
    long_weights[k] = 1.0 + static_cast<double>(k % 5);
  }
  return {
      {"deterministic(3)", make_deterministic(3)},
      {"bernoulli(0.379)", make_bernoulli(0.379)},
      {"bernoulli(0)", make_bernoulli(0.0)},
      {"bernoulli(1)", make_bernoulli(1.0)},
      {"censored_poisson(1.92, 16)", make_censored_poisson(1.92, 16)},
      {"truncated_geometric(mean 2, 16)",
       TruncatedGeometricGain::with_mean(2.0, 16)},
      {"empirical(0..3)",
       std::make_shared<const EmpiricalGain>(
           std::vector<double>{0.3, 0.2, 0.1, 0.4})},
      {"empirical(single)",
       std::make_shared<const EmpiricalGain>(std::vector<double>{1.0})},
      {"empirical(48 entries)",
       std::make_shared<const EmpiricalGain>(long_weights)},
      // A table longer than dist.cdf_lanes serves: sampled lane by lane.
      {"censored_poisson(20, 40)", make_censored_poisson(20.0, 40)},
  };
}

/// Counts per lane for one call: every count in [0, kWidth] appears in every
/// lane across the rounds, with lanes out of step with each other.
std::vector<std::uint32_t> round_counts(std::uint32_t round) {
  std::vector<std::uint32_t> counts(kStreamLanes);
  for (std::size_t k = 0; k < kStreamLanes; ++k) {
    counts[k] = (round + 37 * static_cast<std::uint32_t>(k)) % (kWidth + 1);
  }
  return counts;
}

void expect_lanes_match_scalar(const GainDistribution& gain) {
  LaneStreams streams;
  std::vector<Xoshiro256> scalar;
  for (std::size_t k = 0; k < kStreamLanes; ++k) {
    streams.seed(k, 1000 + k);
    scalar.emplace_back(1000 + k);
  }
  std::vector<OutputCount> out(kWidth * kStreamLanes);
  std::vector<OutputCount> expected(kWidth);
  for (std::uint32_t round = 0; round <= kWidth; ++round) {
    const std::vector<std::uint32_t> counts = round_counts(round);
    gain.sample_lanes(streams, counts.data(), out.data());
    for (std::size_t k = 0; k < kStreamLanes; ++k) {
      gain.sample_n(scalar[k], expected.data(), counts[k]);
      for (std::uint32_t i = 0; i < counts[k]; ++i) {
        ASSERT_EQ(out[i * kStreamLanes + k], expected[i])
            << "round " << round << ", lane " << k << ", draw " << i;
      }
      ASSERT_EQ(streams.get(k).state(), scalar[k].state())
          << "round " << round << ", lane " << k;
    }
  }
}

std::vector<device::SimdLevel> supported_levels() {
  std::vector<device::SimdLevel> levels;
  for (const device::SimdLevel level :
       {device::SimdLevel::kScalar, device::SimdLevel::kAvx2,
        device::SimdLevel::kAvx512}) {
    if (device::level_supported(level)) levels.push_back(level);
  }
  return levels;
}

TEST(LaneDraws, EveryGainTypeMatchesScalarSampleNAtEveryLevel) {
  for (const device::SimdLevel level : supported_levels()) {
    const ScopedSimdLevel pin(level);
    for (const char* kernel : {"dist.bernoulli_lanes", "dist.cdf_lanes"}) {
      lanes::register_kernels();
      EXPECT_EQ(device::KernelRegistry::instance().resolved_level(kernel),
                level)
          << kernel;
    }
    for (const NamedGain& named : every_gain_type()) {
      SCOPED_TRACE(testing::Message()
                   << named.label << " at " << device::to_string(level));
      expect_lanes_match_scalar(*named.gain);
    }
  }
}

TEST(LaneDraws, LaneStreamsRoundTripScalarGenerators) {
  LaneStreams streams;
  for (std::size_t k = 0; k < kStreamLanes; ++k) streams.seed(k, 50 + k);
  for (std::size_t k = 0; k < kStreamLanes; ++k) {
    Xoshiro256 lane = streams.get(k);
    Xoshiro256 reference(50 + k);
    EXPECT_EQ(lane(), reference());
    streams.set(k, lane);
    EXPECT_EQ(streams.get(k).state(), reference.state());
  }
}

TEST(LaneDraws, ZeroCountsLeaveEveryStreamAlone) {
  LaneStreams streams;
  for (std::size_t k = 0; k < kStreamLanes; ++k) streams.seed(k, 9 + k);
  const LaneStreams before = streams;
  const std::vector<std::uint32_t> zero(kStreamLanes, 0);
  OutputCount out[kStreamLanes];
  for (const NamedGain& named : every_gain_type()) {
    named.gain->sample_lanes(streams, zero.data(), out);
  }
  for (std::size_t k = 0; k < kStreamLanes; ++k) {
    EXPECT_EQ(streams.get(k).state(), before.get(k).state());
  }
}

}  // namespace
}  // namespace ripple::dist
