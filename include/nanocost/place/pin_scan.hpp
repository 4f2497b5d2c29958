// Pin-set extent scans for the HPWL cache.
//
// A net's half-perimeter needs the min/max column and row over its
// pins.  The pin coordinates live as (c, r) float pairs -- small
// integers, exact in float -- so the scan is a pure min/max reduction,
// and float min/max is associative and commutative on them (no NaNs,
// no signed zeros: coordinates are non-negative integers).  Every lane
// width therefore produces the *same* floats no matter how the
// reduction is grouped, which is what lets the SSE2 pair scan and the
// AVX 4-pin (8-float) scan sit behind one contract: bitwise equal to
// scan_span_scalar on every input (simd_parity_test).
//
// All variants use the clamped-index idiom for their preamble and
// tails: reading the last pin again for padding lanes cannot change a
// min or a max.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "nanocost/exec/simd.hpp"

#if defined(__SSE2__) || defined(_M_X64)
#include <emmintrin.h>
#define NANOCOST_PIN_SCAN_SSE2 1
#endif
#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define NANOCOST_PIN_SCAN_AVX2 1
#endif

// The dispatcher must land inline in the annealer's inner loop: the
// call it contains to the target("avx2") scan makes GCC's heuristics
// refuse to inline it on their own, which costs ~9% of the whole
// anneal.
#if defined(__GNUC__) || defined(__clang__)
#define NANOCOST_PIN_SCAN_INLINE inline __attribute__((always_inline))
#else
#define NANOCOST_PIN_SCAN_INLINE inline
#endif

namespace nanocost::place::detail {

/// Gate coordinates as a float pair: column and row are tiny integers
/// (exact in float far beyond any realistic grid, < 2^24), and packing
/// them into adjacent lanes lets the vector scans min/max both axes at
/// once -- there is no SSE2 *integer* 32-bit min/max.  Aligned to 8 so
/// a pair loads as one 64-bit lane.
struct alignas(8) PinPos {
  float c = 0.0F, r = 0.0F;
};

/// Column/row extents of a pin set (max - min per axis, still float
/// and exact).
struct PinSpan {
  float span_c = 0.0F, span_r = 0.0F;
};

/// Scalar oracle: clamped 4-pin unroll plus a serial remainder.
inline PinSpan scan_span_scalar(const PinPos* pos, const std::int32_t* pin_gate,
                                std::int32_t begin, std::int32_t end) {
  const std::int32_t last = end - 1;
  const auto pin = [&](std::int32_t i) {
    return pos[static_cast<std::size_t>(pin_gate[static_cast<std::size_t>(std::min(i, last))])];
  };
  const PinPos p0 = pin(begin);
  const PinPos p1 = pin(begin + 1);
  const PinPos p2 = pin(begin + 2);
  const PinPos p3 = pin(begin + 3);
  float min_c = std::min(std::min(p0.c, p1.c), std::min(p2.c, p3.c));
  float max_c = std::max(std::max(p0.c, p1.c), std::max(p2.c, p3.c));
  float min_r = std::min(std::min(p0.r, p1.r), std::min(p2.r, p3.r));
  float max_r = std::max(std::max(p0.r, p1.r), std::max(p2.r, p3.r));
  for (std::int32_t i = begin + 4; i < end; ++i) {
    const PinPos p = pos[static_cast<std::size_t>(pin_gate[static_cast<std::size_t>(i)])];
    min_c = std::min(min_c, p.c);
    max_c = std::max(max_c, p.c);
    min_r = std::min(min_r, p.r);
    max_r = std::max(max_r, p.r);
  }
  return PinSpan{max_c - min_c, max_r - min_r};
}

#if defined(NANOCOST_PIN_SCAN_SSE2)

/// Two pins per register: minps/maxps reduce both axes of four pins in
/// two ops, then odd pins stream through the low pair.
inline PinSpan scan_span_sse2(const PinPos* pos, const std::int32_t* pin_gate,
                              std::int32_t begin, std::int32_t end) {
  const std::int32_t last = end - 1;
  const auto pin_pd = [&](std::int32_t i) {
    return reinterpret_cast<const double*>(
        &pos[static_cast<std::size_t>(pin_gate[static_cast<std::size_t>(std::min(i, last))])]);
  };
  const __m128 v01 =
      _mm_castpd_ps(_mm_loadh_pd(_mm_load_sd(pin_pd(begin)), pin_pd(begin + 1)));
  const __m128 v23 =
      _mm_castpd_ps(_mm_loadh_pd(_mm_load_sd(pin_pd(begin + 2)), pin_pd(begin + 3)));
  __m128 mn = _mm_min_ps(v01, v23);
  __m128 mx = _mm_max_ps(v01, v23);
  for (std::int32_t i = begin + 4; i < end; ++i) {
    const __m128 p = _mm_castpd_ps(_mm_load_sd(reinterpret_cast<const double*>(
        &pos[static_cast<std::size_t>(pin_gate[static_cast<std::size_t>(i)])])));
    const __m128 pp = _mm_movelh_ps(p, p);
    mn = _mm_min_ps(mn, pp);
    mx = _mm_max_ps(mx, pp);
  }
  mn = _mm_min_ps(mn, _mm_movehl_ps(mn, mn));
  mx = _mm_max_ps(mx, _mm_movehl_ps(mx, mx));
  const __m128 span = _mm_sub_ps(mx, mn);  // [span_c, span_r, ..]
  return PinSpan{_mm_cvtss_f32(span),
                 _mm_cvtss_f32(_mm_shuffle_ps(span, span, 1))};
}

#endif  // NANOCOST_PIN_SCAN_SSE2

#if defined(NANOCOST_PIN_SCAN_AVX2)

/// Clamped 4-pin (8-float) load: two 128-bit halves stitched with
/// insertf128, no gathers.  A free function because GCC lambdas do not
/// inherit the enclosing function's target attribute.
__attribute__((target("avx2"))) inline __m256 load_pin_quad_avx2(const PinPos* pos,
                                                                 const std::int32_t* pin_gate,
                                                                 std::int32_t i,
                                                                 std::int32_t last) {
  const auto pin_pd = [&](std::int32_t j) {
    return reinterpret_cast<const double*>(
        &pos[static_cast<std::size_t>(pin_gate[static_cast<std::size_t>(std::min(j, last))])]);
  };
  const __m128d lo = _mm_loadh_pd(_mm_load_sd(pin_pd(i)), pin_pd(i + 1));
  const __m128d hi = _mm_loadh_pd(_mm_load_sd(pin_pd(i + 2)), pin_pd(i + 3));
  return _mm256_castpd_ps(_mm256_insertf128_pd(_mm256_castpd128_pd256(lo), hi, 1));
}

/// Four pins (8 floats) per register: an 8-pin clamped preamble built
/// from two 128-bit halves, then 4 pins per iteration with a clamped
/// final quad.
__attribute__((target("avx2"), cold, noinline)) inline PinSpan scan_span_avx2(const PinPos* pos,
                                                              const std::int32_t* pin_gate,
                                                              std::int32_t begin,
                                                              std::int32_t end) {
  // No lambda wrapper around the quad load: a lambda does not inherit
  // target("avx2"), and returning __m256 from a non-AVX function changes
  // the calling convention (GCC -Wpsabi) and crashed under TSan.
  const std::int32_t last = end - 1;
  const __m256 q0 = load_pin_quad_avx2(pos, pin_gate, begin, last);
  const __m256 q1 = load_pin_quad_avx2(pos, pin_gate, begin + 4, last);
  __m256 mn = _mm256_min_ps(q0, q1);
  __m256 mx = _mm256_max_ps(q0, q1);
  for (std::int32_t i = begin + 8; i < end; i += 4) {
    // clamped: a short final quad re-reads the last pin
    const __m256 q = load_pin_quad_avx2(pos, pin_gate, i, last);
    mn = _mm256_min_ps(mn, q);
    mx = _mm256_max_ps(mx, q);
  }
  __m128 mn4 = _mm_min_ps(_mm256_castps256_ps128(mn), _mm256_extractf128_ps(mn, 1));
  __m128 mx4 = _mm_max_ps(_mm256_castps256_ps128(mx), _mm256_extractf128_ps(mx, 1));
  mn4 = _mm_min_ps(mn4, _mm_movehl_ps(mn4, mn4));
  mx4 = _mm_max_ps(mx4, _mm_movehl_ps(mx4, mx4));
  const __m128 span = _mm_sub_ps(mx4, mn4);
  return PinSpan{_mm_cvtss_f32(span),
                 _mm_cvtss_f32(_mm_shuffle_ps(span, span, 1))};
}

#endif  // NANOCOST_PIN_SCAN_AVX2

/// Level-pinned dispatch; callers cache the level once (a per-scan
/// simd_level() call would dwarf the scan).  The AVX2 scan only pays
/// for itself past its 8-pin preamble, so at kAvx2 smaller nets -- the
/// common case -- take the SSE2 pair scan (x86-64 baseline, not a
/// dispatch level); kScalar stays fully scalar.  Every path is
/// bitwise-identical, so the per-size choice cannot perturb results.
NANOCOST_PIN_SCAN_INLINE PinSpan scan_span(exec::SimdLevel level, const PinPos* pos,
                                           const std::int32_t* pin_gate, std::int32_t begin,
                                           std::int32_t end) {
#if defined(NANOCOST_PIN_SCAN_AVX2)
  if (__builtin_expect(level == exec::SimdLevel::kAvx2 && end - begin > 8, 0)) {
    return scan_span_avx2(pos, pin_gate, begin, end);
  }
#endif
#if defined(NANOCOST_PIN_SCAN_SSE2)
  // Expected taken on every AVX2 host: as the fall-through, this branch
  // keeps the pd_flow body ~2.5% faster than GCC's default layout.
  if (__builtin_expect(level == exec::SimdLevel::kAvx2, 1)) {
    return scan_span_sse2(pos, pin_gate, begin, end);
  }
#endif
  return scan_span_scalar(pos, pin_gate, begin, end);
}

}  // namespace nanocost::place::detail
