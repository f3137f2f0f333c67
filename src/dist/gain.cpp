#include "dist/gain.hpp"

#include <algorithm>
#include <cmath>

#include "dist/lane_kernels.hpp"
#include "util/assert.hpp"
#include "util/string_utils.hpp"

namespace ripple::dist {

namespace detail {

void CdfTable::build(std::vector<double> cdf) {
  RIPPLE_REQUIRE(!cdf.empty(), "CDF table needs at least one entry");
  cdf_ = std::move(cdf);
  guide_.assign(kGuideSize, 0);
  // guide_[j] = first k any u >= j/kGuideSize can map to, i.e. the first k
  // with cdf[k] > j/kGuideSize (entries at or below the bucket floor can
  // never be selected by such a u).
  std::size_t k = 0;
  for (std::size_t j = 0; j < kGuideSize; ++j) {
    const double floor_u = static_cast<double>(j) / static_cast<double>(kGuideSize);
    while (k + 1 < cdf_.size() && cdf_[k] <= floor_u) ++k;
    guide_[j] = static_cast<std::uint32_t>(k);
  }
}

}  // namespace detail

namespace {

/// Build the censored CDF/moments from unnormalized point masses over
/// 0..cap-1 plus everything-above mass folded into cap.
struct FiniteMoments {
  double mean = 0.0;
  double variance = 0.0;
};

FiniteMoments moments_from_cdf(const std::vector<double>& cdf) {
  FiniteMoments m;
  double prev = 0.0;
  double second = 0.0;
  for (std::size_t k = 0; k < cdf.size(); ++k) {
    const double pk = cdf[k] - prev;
    prev = cdf[k];
    m.mean += static_cast<double>(k) * pk;
    second += static_cast<double>(k) * static_cast<double>(k) * pk;
  }
  m.variance = second - m.mean * m.mean;
  return m;
}

}  // namespace

// ------------------------------------------------------------- base defaults

void GainDistribution::sample_n(Xoshiro256& rng, OutputCount* out,
                                std::size_t n) const {
  for (std::size_t i = 0; i < n; ++i) out[i] = sample(rng);
}

void GainDistribution::sample_lanes(LaneStreams& streams,
                                    const std::uint32_t* counts,
                                    OutputCount* out) const {
  // Each lane's stream in turn, drawn in chunks scattered into its column.
  constexpr std::uint32_t kChunk = 64;
  OutputCount chunk[kChunk];
  for (std::size_t k = 0; k < kStreamLanes; ++k) {
    Xoshiro256 rng = streams.get(k);
    for (std::uint32_t done = 0; done < counts[k];) {
      const std::uint32_t n = std::min(counts[k] - done, kChunk);
      sample_n(rng, chunk, n);
      for (std::uint32_t i = 0; i < n; ++i) {
        out[(done + i) * kStreamLanes + k] = chunk[i];
      }
      done += n;
    }
    streams.set(k, rng);
  }
}

// ---------------------------------------------------------------- Deterministic

DeterministicGain::DeterministicGain(OutputCount k) : k_(k) {}
OutputCount DeterministicGain::sample(Xoshiro256&) const { return k_; }
void DeterministicGain::sample_n(Xoshiro256&, OutputCount* out,
                                 std::size_t n) const {
  std::fill(out, out + n, k_);  // sample() consumes no RNG state
}
double DeterministicGain::mean() const { return k_; }
double DeterministicGain::variance() const { return 0.0; }
OutputCount DeterministicGain::max_outputs() const { return k_; }
std::string DeterministicGain::name() const {
  return "deterministic(" + std::to_string(k_) + ")";
}

// -------------------------------------------------------------------- Bernoulli

BernoulliGain::BernoulliGain(double p) : p_(p) {
  RIPPLE_REQUIRE(p >= 0.0 && p <= 1.0, "Bernoulli parameter must be in [0,1]");
  threshold_ = static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}
OutputCount BernoulliGain::sample(Xoshiro256& rng) const {
  return draw(rng) ? 1u : 0u;
}
void BernoulliGain::sample_n(Xoshiro256& rng, OutputCount* out,
                             std::size_t n) const {
  // The generator lives in a local for the loop (see CdfTable::sample_n).
  Xoshiro256 local = rng;
  for (std::size_t i = 0; i < n; ++i) out[i] = draw(local) ? 1u : 0u;
  rng = local;
}
void BernoulliGain::sample_lanes(LaneStreams& streams,
                                 const std::uint32_t* counts,
                                 OutputCount* out) const {
  lanes::bernoulli(streams, counts, threshold_, out);
}
double BernoulliGain::mean() const { return p_; }
double BernoulliGain::variance() const { return p_ * (1.0 - p_); }
OutputCount BernoulliGain::max_outputs() const { return p_ > 0.0 ? 1u : 0u; }
std::string BernoulliGain::name() const {
  return "bernoulli(" + util::format_double(p_, 6) + ")";
}

// -------------------------------------------------------------- CensoredPoisson

CensoredPoissonGain::CensoredPoissonGain(double lambda, OutputCount cap)
    : lambda_(lambda), cap_(cap) {
  RIPPLE_REQUIRE(lambda >= 0.0, "Poisson rate must be non-negative");
  RIPPLE_REQUIRE(cap >= 1, "censoring cap must be at least 1");
  std::vector<double> cdf(cap_ + 1);
  // p_k = e^-lambda lambda^k / k! for k < cap; everything above folds into cap.
  double pk = std::exp(-lambda_);
  double cumulative = 0.0;
  for (OutputCount k = 0; k < cap_; ++k) {
    cumulative += pk;
    cdf[k] = std::min(cumulative, 1.0);
    pk *= lambda_ / static_cast<double>(k + 1);
  }
  cdf[cap_] = 1.0;
  const FiniteMoments m = moments_from_cdf(cdf);
  mean_ = m.mean;
  variance_ = m.variance;
  // cdf[k] * 2^53 is exact (a power-of-two scaling of a value in [0, 1]),
  // and an integer is at or above a real exactly when it is at or above the
  // real's ceiling; truncating then rounding up computes that ceiling.
  for (OutputCount k = 0; k < cap_ && k < kMaxLaneCap; ++k) {
    const double scaled = cdf[k] * 0x1.0p53;
    std::uint64_t threshold = static_cast<std::uint64_t>(scaled);
    if (static_cast<double>(threshold) < scaled) ++threshold;
    lane_thresholds_[k] = threshold;
  }
  table_.build(std::move(cdf));
}

OutputCount CensoredPoissonGain::sample(Xoshiro256& rng) const {
  return table_.sample(rng);
}
void CensoredPoissonGain::sample_n(Xoshiro256& rng, OutputCount* out,
                                   std::size_t n) const {
  table_.sample_n(rng, out, n);
}
void CensoredPoissonGain::sample_lanes(LaneStreams& streams,
                                       const std::uint32_t* counts,
                                       OutputCount* out) const {
  if (cap_ > kMaxLaneCap) {
    GainDistribution::sample_lanes(streams, counts, out);
    return;
  }
  lanes::cdf(streams, counts, table_, lane_thresholds_.data(), cap_, out);
}
double CensoredPoissonGain::mean() const { return mean_; }
double CensoredPoissonGain::variance() const { return variance_; }
OutputCount CensoredPoissonGain::max_outputs() const { return cap_; }
std::string CensoredPoissonGain::name() const {
  return "censored_poisson(" + util::format_double(lambda_, 6) + ", " +
         std::to_string(cap_) + ")";
}

// --------------------------------------------------------- TruncatedGeometric

TruncatedGeometricGain::TruncatedGeometricGain(double p, OutputCount cap)
    : p_(p), cap_(cap) {
  RIPPLE_REQUIRE(p >= 0.0 && p < 1.0, "geometric ratio must be in [0,1)");
  RIPPLE_REQUIRE(cap >= 1, "truncation cap must be at least 1");
  // Unnormalized masses p^k for k in [0, cap], then normalize.
  std::vector<double> mass(cap_ + 1);
  double w = 1.0;
  double total = 0.0;
  for (OutputCount k = 0; k <= cap_; ++k) {
    mass[k] = w;
    total += w;
    w *= p_;
  }
  std::vector<double> cdf(cap_ + 1);
  double cumulative = 0.0;
  for (OutputCount k = 0; k <= cap_; ++k) {
    cumulative += mass[k] / total;
    cdf[k] = std::min(cumulative, 1.0);
  }
  cdf[cap_] = 1.0;
  const FiniteMoments m = moments_from_cdf(cdf);
  mean_ = m.mean;
  variance_ = m.variance;
  table_.build(std::move(cdf));
}

std::shared_ptr<const TruncatedGeometricGain> TruncatedGeometricGain::with_mean(
    double target_mean, OutputCount cap) {
  RIPPLE_REQUIRE(target_mean >= 0.0, "target mean must be non-negative");
  RIPPLE_REQUIRE(target_mean < static_cast<double>(cap),
                 "target mean must be below the cap");
  // The truncated mean is continuous and increasing in p; bisect.
  double lo = 0.0;
  double hi = 1.0 - 1e-12;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    TruncatedGeometricGain probe(mid, cap);
    if (probe.mean() < target_mean) lo = mid;
    else hi = mid;
  }
  return std::make_shared<const TruncatedGeometricGain>(0.5 * (lo + hi), cap);
}

OutputCount TruncatedGeometricGain::sample(Xoshiro256& rng) const {
  return table_.sample(rng);
}
void TruncatedGeometricGain::sample_n(Xoshiro256& rng, OutputCount* out,
                                      std::size_t n) const {
  table_.sample_n(rng, out, n);
}
double TruncatedGeometricGain::mean() const { return mean_; }
double TruncatedGeometricGain::variance() const { return variance_; }
OutputCount TruncatedGeometricGain::max_outputs() const { return cap_; }
std::string TruncatedGeometricGain::name() const {
  return "truncated_geometric(" + util::format_double(p_, 6) + ", " +
         std::to_string(cap_) + ")";
}

// -------------------------------------------------------------------- Empirical

EmpiricalGain::EmpiricalGain(std::vector<double> weights) {
  RIPPLE_REQUIRE(!weights.empty(), "empirical gain needs at least one weight");
  double total = 0.0;
  for (double w : weights) {
    RIPPLE_REQUIRE(w >= 0.0, "weights must be non-negative");
    total += w;
  }
  RIPPLE_REQUIRE(total > 0.0, "weights must not all be zero");
  std::vector<double> cdf(weights.size());
  double cumulative = 0.0;
  for (std::size_t k = 0; k < weights.size(); ++k) {
    cumulative += weights[k] / total;
    cdf[k] = std::min(cumulative, 1.0);
  }
  cdf.back() = 1.0;
  const FiniteMoments m = moments_from_cdf(cdf);
  mean_ = m.mean;
  variance_ = m.variance;
  table_.build(std::move(cdf));
}

OutputCount EmpiricalGain::sample(Xoshiro256& rng) const {
  return table_.sample(rng);
}
void EmpiricalGain::sample_n(Xoshiro256& rng, OutputCount* out,
                             std::size_t n) const {
  table_.sample_n(rng, out, n);
}
double EmpiricalGain::mean() const { return mean_; }
double EmpiricalGain::variance() const { return variance_; }
std::vector<double> EmpiricalGain::weights() const {
  const std::vector<double>& cdf = table_.cdf();
  std::vector<double> masses(cdf.size());
  double previous = 0.0;
  for (std::size_t k = 0; k < cdf.size(); ++k) {
    masses[k] = cdf[k] - previous;
    previous = cdf[k];
  }
  return masses;
}

OutputCount EmpiricalGain::max_outputs() const {
  return static_cast<OutputCount>(table_.cdf().size() - 1);
}
std::string EmpiricalGain::name() const {
  return "empirical(k_max=" + std::to_string(table_.cdf().size() - 1) + ")";
}

// -------------------------------------------------------------------- factories

GainPtr make_deterministic(OutputCount k) {
  return std::make_shared<const DeterministicGain>(k);
}
GainPtr make_bernoulli(double p) {
  return std::make_shared<const BernoulliGain>(p);
}
GainPtr make_censored_poisson(double lambda, OutputCount cap) {
  return std::make_shared<const CensoredPoissonGain>(lambda, cap);
}

}  // namespace ripple::dist
