// Scalar, AVX2 and AVX-512 bodies of the lockstep gain-draw kernels, and
// their registration (see lane_kernels.hpp for the contract).
//
// A vector body holds state word w of all eight streams in one AVX-512
// register (two AVX2 registers), steps every lane once per row, and keeps the
// new state only in lanes whose count exceeds the row. xoshiro256**'s
// multiplies by 5 and 9 are shift-adds, exact modulo 2^64. Both decisions
// compare the draw's top 53 bits with integer thresholds, so no lane ever
// converts to double. The scalar bodies draw lane by lane: Bernoulli makes
// the same comparison, censored Poisson looks the draw up in its guide table.
#include "dist/lane_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "device/dispatch.hpp"
#include "device/kernel_registry.hpp"

#if RIPPLE_SIMD_X86 || RIPPLE_SIMD_X86_AVX512
#include <immintrin.h>
#endif

namespace ripple::dist::lanes {

namespace {

constexpr std::size_t kLanes = kStreamLanes;

#if RIPPLE_SIMD_X86 || RIPPLE_SIMD_X86_AVX512
/// Rows a vector body steps: the largest lane count.
std::uint32_t max_count(const std::uint32_t* counts) {
  return *std::max_element(counts, counts + kLanes);
}
#endif

// ------------------------------------------------------------------ scalar

void bernoulli_scalar(LaneStreams& streams, const std::uint32_t* counts,
                      std::uint64_t threshold, OutputCount* out) {
  for (std::size_t k = 0; k < kLanes; ++k) {
    Xoshiro256 rng = streams.get(k);
    for (std::uint32_t i = 0; i < counts[k]; ++i) {
      out[i * kLanes + k] = (rng() >> 11) < threshold ? 1u : 0u;
    }
    streams.set(k, rng);
  }
}

/// One lane at a time through the guide table, which touches one or two
/// CDF entries per draw where a threshold scan would compare all of them.
void cdf_scalar(LaneStreams& streams, const std::uint32_t* counts,
                const detail::CdfTable& table, const std::uint64_t*,
                std::size_t, OutputCount* out) {
  for (std::size_t k = 0; k < kLanes; ++k) {
    Xoshiro256 rng = streams.get(k);
    for (std::uint32_t i = 0; i < counts[k]; ++i) {
      out[i * kLanes + k] = table.sample(rng);
    }
    streams.set(k, rng);
  }
}

// -------------------------------------------------------------------- AVX2

#if RIPPLE_SIMD_X86

#define RIPPLE_AVX2_TARGET "avx2"

/// Four lanes' state (lanes 0-3 or 4-7).
struct Avx2Half {
  __m256i s0, s1, s2, s3;
};

__attribute__((target(RIPPLE_AVX2_TARGET))) inline __m256i rotl_avx2(
    __m256i x, int k) {
  return _mm256_or_si256(_mm256_slli_epi64(x, k), _mm256_srli_epi64(x, 64 - k));
}

__attribute__((target(RIPPLE_AVX2_TARGET))) inline Avx2Half load_half(
    const LaneStreams& streams, std::size_t first) {
  __m256i words[4];
  for (std::size_t w = 0; w < 4; ++w) {
    words[w] = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(&streams.word[w][first]));
  }
  return {words[0], words[1], words[2], words[3]};
}

__attribute__((target(RIPPLE_AVX2_TARGET))) inline void store_half(
    LaneStreams& streams, std::size_t first, const Avx2Half& h) {
  const __m256i words[4] = {h.s0, h.s1, h.s2, h.s3};
  for (std::size_t w = 0; w < 4; ++w) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(&streams.word[w][first]),
                       words[w]);
  }
}

/// One xoshiro256** output per lane; the state advances where `active`.
__attribute__((target(RIPPLE_AVX2_TARGET))) inline __m256i next_avx2(
    Avx2Half& h, __m256i active) {
  const __m256i times5 = _mm256_add_epi64(h.s1, _mm256_slli_epi64(h.s1, 2));
  const __m256i rotated = rotl_avx2(times5, 7);
  const __m256i result =
      _mm256_add_epi64(rotated, _mm256_slli_epi64(rotated, 3));
  const __m256i t = _mm256_slli_epi64(h.s1, 17);
  __m256i n2 = _mm256_xor_si256(h.s2, h.s0);
  __m256i n3 = _mm256_xor_si256(h.s3, h.s1);
  const __m256i n1 = _mm256_xor_si256(h.s1, n2);
  const __m256i n0 = _mm256_xor_si256(h.s0, n3);
  n2 = _mm256_xor_si256(n2, t);
  n3 = rotl_avx2(n3, 45);
  h.s0 = _mm256_blendv_epi8(h.s0, n0, active);
  h.s1 = _mm256_blendv_epi8(h.s1, n1, active);
  h.s2 = _mm256_blendv_epi8(h.s2, n2, active);
  h.s3 = _mm256_blendv_epi8(h.s3, n3, active);
  return result;
}

/// The low 32 bits of lanes 0-3 (`lo`) and 4-7 (`hi`) as eight u32.
__attribute__((target(RIPPLE_AVX2_TARGET))) inline __m256i pack_low32(
    __m256i lo, __m256i hi) {
  const __m256i even = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  return _mm256_blend_epi32(_mm256_permutevar8x32_epi32(lo, even),
                            _mm256_permutevar8x32_epi32(hi, even), 0xF0);
}

/// Per-half counts widened to 64-bit lanes, for the row-active compare.
__attribute__((target(RIPPLE_AVX2_TARGET))) inline void load_counts(
    const std::uint32_t* counts, __m256i& lo, __m256i& hi) {
  lo = _mm256_cvtepu32_epi64(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(counts)));
  hi = _mm256_cvtepu32_epi64(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(counts + 4)));
}

__attribute__((target(RIPPLE_AVX2_TARGET))) void bernoulli_avx2(
    LaneStreams& streams, const std::uint32_t* counts, std::uint64_t threshold,
    OutputCount* out) {
  const std::uint32_t rows = max_count(counts);
  if (rows == 0) return;
  __m256i count_lo, count_hi;
  load_counts(counts, count_lo, count_hi);
  Avx2Half lo = load_half(streams, 0);
  Avx2Half hi = load_half(streams, 4);
  // Top-53-bit draws and the threshold are below 2^54, so the signed
  // compare is exact.
  const __m256i limit = _mm256_set1_epi64x(static_cast<long long>(threshold));
  const __m256i one = _mm256_set1_epi64x(1);
  for (std::uint32_t i = 0; i < rows; ++i) {
    const __m256i row = _mm256_set1_epi64x(i);
    const __m256i x_lo = next_avx2(lo, _mm256_cmpgt_epi64(count_lo, row));
    const __m256i x_hi = next_avx2(hi, _mm256_cmpgt_epi64(count_hi, row));
    const __m256i hit_lo = _mm256_and_si256(
        _mm256_cmpgt_epi64(limit, _mm256_srli_epi64(x_lo, 11)), one);
    const __m256i hit_hi = _mm256_and_si256(
        _mm256_cmpgt_epi64(limit, _mm256_srli_epi64(x_hi, 11)), one);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i * kLanes),
                        pack_low32(hit_lo, hit_hi));
  }
  store_half(streams, 0, lo);
  store_half(streams, 4, hi);
}

__attribute__((target(RIPPLE_AVX2_TARGET))) void cdf_avx2(
    LaneStreams& streams, const std::uint32_t* counts, const detail::CdfTable&,
    const std::uint64_t* thresholds, std::size_t threshold_count,
    OutputCount* out) {
  const std::uint32_t rows = max_count(counts);
  if (rows == 0) return;
  __m256i count_lo, count_hi;
  load_counts(counts, count_lo, count_hi);
  Avx2Half lo = load_half(streams, 0);
  Avx2Half hi = load_half(streams, 4);
  const __m256i total =
      _mm256_set1_epi64x(static_cast<long long>(threshold_count));
  for (std::uint32_t i = 0; i < rows; ++i) {
    const __m256i row = _mm256_set1_epi64x(i);
    const __m256i bits_lo = _mm256_srli_epi64(
        next_avx2(lo, _mm256_cmpgt_epi64(count_lo, row)), 11);
    const __m256i bits_hi = _mm256_srli_epi64(
        next_avx2(hi, _mm256_cmpgt_epi64(count_hi, row)), 11);
    // Sum of (threshold > bits) as -1 per threshold above the draw; the
    // value is the count of thresholds at or below it.
    __m256i above_lo = _mm256_setzero_si256();
    __m256i above_hi = _mm256_setzero_si256();
    for (std::size_t j = 0; j < threshold_count; ++j) {
      const __m256i t =
          _mm256_set1_epi64x(static_cast<long long>(thresholds[j]));
      above_lo = _mm256_add_epi64(above_lo, _mm256_cmpgt_epi64(t, bits_lo));
      above_hi = _mm256_add_epi64(above_hi, _mm256_cmpgt_epi64(t, bits_hi));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i * kLanes),
                        pack_low32(_mm256_add_epi64(total, above_lo),
                                   _mm256_add_epi64(total, above_hi)));
  }
  store_half(streams, 0, lo);
  store_half(streams, 4, hi);
}

#endif  // RIPPLE_SIMD_X86

// ----------------------------------------------------------------- AVX-512

#if RIPPLE_SIMD_X86_AVX512

#define RIPPLE_AVX512_TARGET "avx2,avx512f,avx512bw,avx512dq,avx512vl"

struct Avx512State {
  __m512i s0, s1, s2, s3;
};

__attribute__((target(RIPPLE_AVX512_TARGET))) inline Avx512State load_state(
    const LaneStreams& streams) {
  return {_mm512_load_si512(streams.word[0]), _mm512_load_si512(streams.word[1]),
          _mm512_load_si512(streams.word[2]),
          _mm512_load_si512(streams.word[3])};
}

__attribute__((target(RIPPLE_AVX512_TARGET))) inline void store_state(
    LaneStreams& streams, const Avx512State& s) {
  _mm512_store_si512(streams.word[0], s.s0);
  _mm512_store_si512(streams.word[1], s.s1);
  _mm512_store_si512(streams.word[2], s.s2);
  _mm512_store_si512(streams.word[3], s.s3);
}

/// One xoshiro256** output per lane; the state advances in `active` lanes.
__attribute__((target(RIPPLE_AVX512_TARGET))) inline __m512i next_avx512(
    Avx512State& s, __mmask8 active) {
  const __m512i times5 = _mm512_add_epi64(s.s1, _mm512_slli_epi64(s.s1, 2));
  const __m512i rotated = _mm512_rol_epi64(times5, 7);
  const __m512i result =
      _mm512_add_epi64(rotated, _mm512_slli_epi64(rotated, 3));
  const __m512i t = _mm512_slli_epi64(s.s1, 17);
  __m512i n2 = _mm512_xor_si512(s.s2, s.s0);
  __m512i n3 = _mm512_xor_si512(s.s3, s.s1);
  const __m512i n1 = _mm512_xor_si512(s.s1, n2);
  const __m512i n0 = _mm512_xor_si512(s.s0, n3);
  n2 = _mm512_xor_si512(n2, t);
  n3 = _mm512_rol_epi64(n3, 45);
  s.s0 = _mm512_mask_mov_epi64(s.s0, active, n0);
  s.s1 = _mm512_mask_mov_epi64(s.s1, active, n1);
  s.s2 = _mm512_mask_mov_epi64(s.s2, active, n2);
  s.s3 = _mm512_mask_mov_epi64(s.s3, active, n3);
  return result;
}

__attribute__((target(RIPPLE_AVX512_TARGET))) void bernoulli_avx512(
    LaneStreams& streams, const std::uint32_t* counts, std::uint64_t threshold,
    OutputCount* out) {
  const std::uint32_t rows = max_count(counts);
  if (rows == 0) return;
  const __m256i count =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(counts));
  Avx512State s = load_state(streams);
  const __m512i limit = _mm512_set1_epi64(static_cast<long long>(threshold));
  const __m256i one = _mm256_set1_epi32(1);
  for (std::uint32_t i = 0; i < rows; ++i) {
    const __mmask8 active = _mm256_cmpgt_epu32_mask(
        count, _mm256_set1_epi32(static_cast<int>(i)));
    const __m512i bits = _mm512_srli_epi64(next_avx512(s, active), 11);
    const __mmask8 hit = _mm512_cmplt_epu64_mask(bits, limit);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i * kLanes),
                        _mm256_maskz_mov_epi32(hit, one));
  }
  store_state(streams, s);
}

__attribute__((target(RIPPLE_AVX512_TARGET))) void cdf_avx512(
    LaneStreams& streams, const std::uint32_t* counts, const detail::CdfTable&,
    const std::uint64_t* thresholds, std::size_t threshold_count,
    OutputCount* out) {
  const std::uint32_t rows = max_count(counts);
  if (rows == 0) return;
  const __m256i count =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(counts));
  Avx512State s = load_state(streams);
  const __m512i one = _mm512_set1_epi64(1);
  for (std::uint32_t i = 0; i < rows; ++i) {
    const __mmask8 active = _mm256_cmpgt_epu32_mask(
        count, _mm256_set1_epi32(static_cast<int>(i)));
    const __m512i bits = _mm512_srli_epi64(next_avx512(s, active), 11);
    __m512i value = _mm512_setzero_si512();
    for (std::size_t j = 0; j < threshold_count; ++j) {
      const __mmask8 at_or_below = _mm512_cmpge_epu64_mask(
          bits, _mm512_set1_epi64(static_cast<long long>(thresholds[j])));
      value = _mm512_mask_add_epi64(value, at_or_below, value, one);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i * kLanes),
                        _mm512_cvtepi64_epi32(value));
  }
  store_state(streams, s);
}

#endif  // RIPPLE_SIMD_X86_AVX512

// -------------------------------------------------------------- microbench

/// Fixed-seed streams at the Table-1 draw shapes: a full 128-row block per
/// lane, Bernoulli(0.379) and the censored Poisson(1.92, 16) thresholds.
LaneStreams microbench_streams() {
  LaneStreams streams;
  for (std::size_t k = 0; k < kLanes; ++k) streams.seed(k, 0x1A9E5 + k);
  return streams;
}

constexpr std::uint32_t kMicrobenchRows = 128;

std::uint64_t microbench_bernoulli(device::AnyKernelFn fn) {
  LaneStreams streams = microbench_streams();
  std::uint32_t counts[kLanes];
  std::fill_n(counts, kLanes, kMicrobenchRows);
  static OutputCount out[kMicrobenchRows * kLanes];
  // The BernoulliGain(0.379) threshold.
  const auto threshold = static_cast<std::uint64_t>(std::ceil(0.379 * 0x1.0p53));
  for (int pass = 0; pass < 64; ++pass) {
    reinterpret_cast<BernoulliLanesFn>(fn)(streams, counts, threshold, out);
  }
  return 64ull * kMicrobenchRows * kLanes;
}

std::uint64_t microbench_cdf(device::AnyKernelFn fn) {
  LaneStreams streams = microbench_streams();
  std::uint32_t counts[kLanes];
  std::fill_n(counts, kLanes, kMicrobenchRows);
  static OutputCount out[kMicrobenchRows * kLanes];
  const CensoredPoissonGain gain(1.92, 16);
  const std::span<const std::uint64_t> thresholds = gain.lane_thresholds();
  for (int pass = 0; pass < 64; ++pass) {
    reinterpret_cast<CdfLanesFn>(fn)(streams, counts, gain.table(),
                                     thresholds.data(), thresholds.size(), out);
  }
  return 64ull * kMicrobenchRows * kLanes;
}

template <typename Fn>
device::AnyKernelFn erase(Fn* fn) {
  return reinterpret_cast<device::AnyKernelFn>(fn);
}

void register_all() {
  device::KernelRegistry& reg = device::KernelRegistry::instance();
  using device::SimdLevel;
  reg.register_variant("dist.bernoulli_lanes", "dist", SimdLevel::kScalar, 1,
                       erase(&bernoulli_scalar));
  reg.register_variant("dist.cdf_lanes", "dist", SimdLevel::kScalar, 1,
                       erase(&cdf_scalar));
#if RIPPLE_SIMD_X86
  reg.register_variant("dist.bernoulli_lanes", "dist", SimdLevel::kAvx2, 8,
                       erase(&bernoulli_avx2));
  reg.register_variant("dist.cdf_lanes", "dist", SimdLevel::kAvx2, 8,
                       erase(&cdf_avx2));
#endif
#if RIPPLE_SIMD_X86_AVX512
  reg.register_variant("dist.bernoulli_lanes", "dist", SimdLevel::kAvx512, 8,
                       erase(&bernoulli_avx512));
  reg.register_variant("dist.cdf_lanes", "dist", SimdLevel::kAvx512, 8,
                       erase(&cdf_avx512));
#endif
  reg.set_microbench("dist.bernoulli_lanes", &microbench_bernoulli);
  reg.set_microbench("dist.cdf_lanes", &microbench_cdf);
}

}  // namespace

void register_kernels() {
  static const bool once = [] {
    register_all();
    return true;
  }();
  (void)once;
}

void bernoulli(LaneStreams& streams, const std::uint32_t* counts,
               std::uint64_t threshold, OutputCount* out) {
  register_kernels();
  thread_local device::KernelHandle<BernoulliLanesFn> handle(
      "dist.bernoulli_lanes");
  handle.fn()(streams, counts, threshold, out);
}

void cdf(LaneStreams& streams, const std::uint32_t* counts,
         const detail::CdfTable& table, const std::uint64_t* thresholds,
         std::size_t threshold_count, OutputCount* out) {
  register_kernels();
  thread_local device::KernelHandle<CdfLanesFn> handle("dist.cdf_lanes");
  handle.fn()(streams, counts, table, thresholds, threshold_count, out);
}

}  // namespace ripple::dist::lanes
