#include "dist/gain.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <ostream>
#include <utility>
#include <vector>

#include "dist/rng.hpp"
#include "dist/stats.hpp"

namespace ripple::dist {
namespace {

/// Sample a gain distribution and return observed running stats.
RunningStats sample_stats(const GainDistribution& gain, int samples,
                          std::uint64_t seed) {
  Xoshiro256 rng(seed);
  RunningStats stats;
  for (int i = 0; i < samples; ++i) {
    stats.add(static_cast<double>(gain.sample(rng)));
  }
  return stats;
}

TEST(DeterministicGain, AlwaysK) {
  DeterministicGain gain(3);
  Xoshiro256 rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(gain.sample(rng), 3u);
  EXPECT_DOUBLE_EQ(gain.mean(), 3.0);
  EXPECT_DOUBLE_EQ(gain.variance(), 0.0);
  EXPECT_EQ(gain.max_outputs(), 3u);
}

TEST(BernoulliGain, RejectsBadProbability) {
  EXPECT_THROW(BernoulliGain(-0.1), std::logic_error);
  EXPECT_THROW(BernoulliGain(1.1), std::logic_error);
}

TEST(BernoulliGain, MomentsExact) {
  BernoulliGain gain(0.379);  // the paper's stage-0 gain
  EXPECT_DOUBLE_EQ(gain.mean(), 0.379);
  EXPECT_DOUBLE_EQ(gain.variance(), 0.379 * 0.621);
  EXPECT_EQ(gain.max_outputs(), 1u);
}

TEST(BernoulliGain, DegenerateEndpoints) {
  BernoulliGain never(0.0);
  BernoulliGain always(1.0);
  Xoshiro256 rng(2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(never.sample(rng), 0u);
    EXPECT_EQ(always.sample(rng), 1u);
  }
  EXPECT_EQ(never.max_outputs(), 0u);
}

/// The gain decides on the generator's top 53 bits against ceil(p * 2^53);
/// that must be exactly `uniform01() < p` for every p, including the
/// endpoints and a p that equals a draw (strictly-below must say no).
TEST(BernoulliGain, DecidesExactlyAsUniformBelowP) {
  Xoshiro256 probe(17);
  const double p_equal_to_a_draw = Xoshiro256(99).uniform01();
  std::vector<double> ps = {0.0,
                            1.0,
                            0.379,
                            0.0332,
                            0.5,
                            1e-300,
                            std::nextafter(1.0, 0.0),
                            std::nextafter(0.5, 0.0),
                            std::nextafter(0.5, 1.0),
                            p_equal_to_a_draw};
  for (int i = 0; i < 20; ++i) ps.push_back(probe.uniform01());
  for (const double p : ps) {
    SCOPED_TRACE(p);
    const BernoulliGain gain(p);
    Xoshiro256 gain_rng(99);
    Xoshiro256 reference_rng(99);
    for (int i = 0; i < 2000; ++i) {
      const OutputCount want = reference_rng.uniform01() < p ? 1u : 0u;
      ASSERT_EQ(gain.sample(gain_rng), want) << "draw " << i;
    }
  }
}

TEST(CensoredPoissonGain, NeverExceedsCap) {
  CensoredPoissonGain gain(1.92, 16);  // the paper's stage 1
  Xoshiro256 rng(3);
  for (int i = 0; i < 100000; ++i) EXPECT_LE(gain.sample(rng), 16u);
}

TEST(CensoredPoissonGain, MeanNearLambdaWhenCapIsLoose) {
  // P(Poisson(1.92) > 16) ~ 1e-12: censoring is negligible.
  CensoredPoissonGain gain(1.92, 16);
  EXPECT_NEAR(gain.mean(), 1.92, 1e-9);
  EXPECT_NEAR(gain.variance(), 1.92, 1e-6);
}

TEST(CensoredPoissonGain, TightCapLowersMean) {
  CensoredPoissonGain gain(5.0, 3);
  EXPECT_LT(gain.mean(), 5.0);
  EXPECT_LE(gain.max_outputs(), 3u);
  Xoshiro256 rng(4);
  for (int i = 0; i < 10000; ++i) EXPECT_LE(gain.sample(rng), 3u);
}

TEST(CensoredPoissonGain, ZeroLambdaAlwaysZero) {
  CensoredPoissonGain gain(0.0, 16);
  Xoshiro256 rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(gain.sample(rng), 0u);
  EXPECT_DOUBLE_EQ(gain.mean(), 0.0);
}

TEST(TruncatedGeometricGain, WithMeanHitsTarget) {
  auto gain = TruncatedGeometricGain::with_mean(1.92, 16);
  EXPECT_NEAR(gain->mean(), 1.92, 1e-6);
}

TEST(TruncatedGeometricGain, HeavierTailThanPoissonAtSameMean) {
  CensoredPoissonGain poisson(1.92, 16);
  auto geometric = TruncatedGeometricGain::with_mean(1.92, 16);
  EXPECT_GT(geometric->variance(), poisson.variance());
}

TEST(EmpiricalGain, MatchesHistogram) {
  // 50% zero, 25% one, 25% four.
  EmpiricalGain gain({2.0, 1.0, 0.0, 0.0, 1.0});
  EXPECT_DOUBLE_EQ(gain.mean(), 0.25 + 1.0);
  EXPECT_EQ(gain.max_outputs(), 4u);
}

TEST(EmpiricalGain, RejectsInvalidWeights) {
  EXPECT_THROW(EmpiricalGain({}), std::logic_error);
  EXPECT_THROW(EmpiricalGain({0.0, 0.0}), std::logic_error);
  EXPECT_THROW(EmpiricalGain({1.0, -1.0}), std::logic_error);
}

TEST(Factories, ProduceExpectedTypes) {
  EXPECT_EQ(make_deterministic(2)->mean(), 2.0);
  EXPECT_DOUBLE_EQ(make_bernoulli(0.25)->mean(), 0.25);
  // Censoring at 8 trims a ~1e-6 sliver of the Poisson(1) tail.
  EXPECT_NEAR(make_censored_poisson(1.0, 8)->mean(), 1.0, 1e-5);
}

/// The batched APIs are drop-in replacements for n successive sample()
/// calls: same values, and — critically for simulator determinism — exactly
/// the same RNG stream consumption, so code mixing batched and scalar
/// sampling stays reproducible.
TEST(BatchSampling, SampleNMatchesScalarStream) {
  const std::vector<std::pair<const char*, GainPtr>> cases = [] {
    std::vector<std::pair<const char*, GainPtr>> list;
    list.emplace_back("deterministic", make_deterministic(3));
    list.emplace_back("bernoulli", make_bernoulli(0.379));
    list.emplace_back("censored_poisson", make_censored_poisson(1.92, 16));
    list.emplace_back("trunc_geometric",
                      TruncatedGeometricGain::with_mean(2.3, 12));
    list.emplace_back("empirical",
                      std::make_shared<EmpiricalGain>(
                          std::vector<double>{0.2, 0.5, 0.0, 0.3}));
    return list;
  }();
  for (const auto& [label, gain] : cases) {
    SCOPED_TRACE(label);
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                std::size_t{128}, std::size_t{1000}}) {
      Xoshiro256 scalar_rng(42);
      std::vector<OutputCount> expected(n);
      for (std::size_t i = 0; i < n; ++i) expected[i] = gain->sample(scalar_rng);

      Xoshiro256 batch_rng(42);
      std::vector<OutputCount> got(n);
      gain->sample_n(batch_rng, got.data(), n);
      EXPECT_EQ(got, expected) << "n=" << n;
      // Both generators must sit at the same stream position afterwards.
      EXPECT_EQ(batch_rng(), scalar_rng()) << "n=" << n;
    }
  }
}

TEST(Names, AreDescriptive) {
  EXPECT_EQ(DeterministicGain(1).name(), "deterministic(1)");
  EXPECT_NE(BernoulliGain(0.3).name().find("bernoulli"), std::string::npos);
  EXPECT_NE(CensoredPoissonGain(1.0, 4).name().find("censored_poisson"),
            std::string::npos);
}

/// Property: sampled moments converge to analytic moments for every
/// distribution family (the simulator's fidelity rests on this).
struct MomentCase {
  const char* label;
  GainPtr gain;
};

// Without this, gtest prints the case as its raw bytes, which hold pointers
// that move with address-space randomisation, so the test names that ctest
// discovers would change from one build to the next.
void PrintTo(const MomentCase& c, std::ostream* os) { *os << c.label; }

class GainMoments : public ::testing::TestWithParam<MomentCase> {};

TEST_P(GainMoments, SampleMeanMatchesAnalytic) {
  const auto& param = GetParam();
  const RunningStats stats = sample_stats(*param.gain, 200000, 99);
  const double tolerance =
      4.0 * std::sqrt(std::max(param.gain->variance(), 1e-12) / 200000.0);
  EXPECT_NEAR(stats.mean(), param.gain->mean(), tolerance) << param.label;
}

TEST_P(GainMoments, SampleVarianceMatchesAnalytic) {
  const auto& param = GetParam();
  const RunningStats stats = sample_stats(*param.gain, 200000, 101);
  const double v = param.gain->variance();
  EXPECT_NEAR(stats.variance(), v, 0.05 * (v + 0.05)) << param.label;
}

TEST_P(GainMoments, SamplesNeverExceedMax) {
  const auto& param = GetParam();
  Xoshiro256 rng(103);
  for (int i = 0; i < 20000; ++i) {
    EXPECT_LE(param.gain->sample(rng), param.gain->max_outputs()) << param.label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, GainMoments,
    ::testing::Values(
        MomentCase{"bernoulli_stage0", make_bernoulli(0.379)},
        MomentCase{"bernoulli_stage2", make_bernoulli(0.0332)},
        MomentCase{"poisson_stage1", make_censored_poisson(1.92, 16)},
        MomentCase{"poisson_tight_cap", make_censored_poisson(4.0, 5)},
        MomentCase{"deterministic", make_deterministic(2)},
        MomentCase{"geometric",
                   TruncatedGeometricGain::with_mean(1.5, 16)},
        MomentCase{"empirical",
                   std::make_shared<const EmpiricalGain>(
                       std::vector<double>{4.0, 2.0, 1.0, 1.0})}),
    [](const auto& info) { return std::string(info.param.label); });

}  // namespace
}  // namespace ripple::dist
