// Lane types: one register of floats per SIMD tier, and the ops the vector
// kernels are written in (util/simd.cpp, tensor/conv.cpp, tensor/gemm.cpp).
// A kernel is a template over its lane type L, written once; on<L, kernel<L>>
// is its entry point compiled for L's instruction set, and the tiers differ
// only in the instructions the ops below pick.
//
// Every op is exact per lane, and each tier's op does to a lane what the
// scalar op does to a float, so a kernel gives the same bits in every tier
// (DESIGN.md "SIMD dispatch tiers"). Where the ISAs disagree on NaN, the ops
// follow x86: max/min return their second operand when either is NaN.
//
// Inlining discipline. The ISA-neutral kernel code (kernel templates, their
// helpers and lambdas) is OSP_INLINE, so at every optimization level it is
// inlined into the target-attributed entry point before any lane op is
// called, and the entry point is flattened, so the ops inline too. Lane ops
// take and return registers by value; no register crosses a call between
// code built for different ISAs, which is what GCC's -Wpsabi note warns
// about, so the note is silenced in the files that include this header.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define OSP_LANES_X86 1
#define OSP_AVX2 __attribute__((target("avx2")))
// The AVX-512 tier runs only where util::simd finds all four of these.
#define OSP_AVX512 \
  __attribute__((target("avx512f,avx512bw,avx512dq,avx512vl")))
#endif

#define OSP_INLINE __attribute__((always_inline))

#pragma GCC diagnostic ignored "-Wpsabi"

namespace osp::util::lanes {

using Bits = std::uint32_t;  // bit i set: lane i is live

/// One float. Also the tail of every vector kernel: the same code, one lane
/// wide.
struct Scalar {
  using Isa = Scalar;
  using F = float;
  using M = bool;
  using D = std::array<double, 8>;  // the 8 double lanes of a reduction tree
  static constexpr std::size_t kWidth = 1;

  static F set1(float x) { return x; }
  static F load(const float* p) { return *p; }
  static void store(float* p, F v) { *p = v; }
  /// Masked forms: dead lanes load +0 and are not stored; p is not
  /// dereferenced for them, so it may point outside the array.
  static F load(const float* p, Bits live) { return live != 0 ? *p : 0.0f; }
  static void store(float* p, F v, Bits live) { if (live != 0) *p = v; }
  /// Live lane i loads base[idx[i]], dead lanes +0; neither idx[i] nor
  /// base[idx[i]] is read for a dead lane.
  static F gather(const float* base, const std::int32_t* idx, Bits live) {
    return live != 0 ? base[*idx] : 0.0f;
  }
  static F add(F a, F b) { return a + b; }
  static F sub(F a, F b) { return a - b; }
  static F mul(F a, F b) { return a * b; }
  static F min(F a, F b) { return a < b ? a : b; }
  static F max(F a, F b) { return a > b ? a : b; }
  static F abs(F a) { return std::fabs(a); }
  /// Max of the bit patterns as unsigned integers: on magnitudes, NaN >
  /// +inf > every finite value.
  static F umax(F a, F b) {
    using U = std::uint32_t;
    return std::bit_cast<U>(a) > std::bit_cast<U>(b) ? a : b;
  }
  /// Round to nearest, ties to even.
  static F rint(F a) { return std::nearbyint(a); }
  /// mag (≥ +0) with the sign of s.
  static F copysign(F mag, F s) { return std::copysign(mag, s); }
  // Ordered compares (false on NaN), and nle = !(a <= b) (true on NaN).
  static M gt(F a, F b) { return a > b; }
  static M ge(F a, F b) { return a >= b; }
  static M eq(F a, F b) { return a == b; }
  static M nle(F a, F b) { return !(a <= b); }
  static std::size_t count(M m) { return m ? 1 : 0; }
  static F select(M m, F a, F b) { return m ? a : b; }
  /// a where m, +0 elsewhere.
  static F keep(M m, F a) { return m ? a : 0.0f; }
  /// Lanes whose byte is nonzero.
  static M nonzero(const std::uint8_t* p) { return *p != 0; }

  /// |p[0..8)| widened to 8 doubles (exact).
  static D widen_abs(const float* p) {
    D d;
    for (int j = 0; j < 8; ++j) d[j] = p[j];
    return map(d, d, [](double x, double) { return std::fabs(x); });
  }
  template <class Op>
  static D map(D a, const D& b, Op op) {
    for (int j = 0; j < 8; ++j) a[j] = op(a[j], b[j]);
    return a;
  }
  static D dadd(const D& a, const D& b) { return map(a, b, std::plus()); }
  /// c + a·b. For widened floats the product is exact, so a fused
  /// multiply-add (AVX-512's) gives the same bits.
  static D dfma(const D& a, const D& b, const D& c) {
    return dadd(c, map(a, b, std::multiplies()));
  }
  static void dstore(double* out, const D& d) { std::ranges::copy(d, out); }
};

#ifdef OSP_LANES_X86

struct Avx2 {
  using Isa = Avx2;
  using F = __m256;
  using M = __m256;  // all-ones lanes
  struct D { __m256d lo, hi; };
  static constexpr std::size_t kWidth = 8;

  OSP_AVX2 static F set1(float x) { return _mm256_set1_ps(x); }
  OSP_AVX2 static F load(const float* p) { return _mm256_loadu_ps(p); }
  OSP_AVX2 static void store(float* p, F v) { _mm256_storeu_ps(p, v); }
  /// Lane i's bit moved to its sign bit, the one maskload/maskstore read.
  OSP_AVX2 static __m256i mask(Bits live) {
    const __m256i shift = _mm256_setr_epi32(31, 30, 29, 28, 27, 26, 25, 24);
    return _mm256_sllv_epi32(_mm256_set1_epi32(static_cast<int>(live)), shift);
  }
  OSP_AVX2 static F load(const float* p, Bits live) {
    return _mm256_maskload_ps(p, mask(live));
  }
  OSP_AVX2 static void store(float* p, F v, Bits live) {
    _mm256_maskstore_ps(p, mask(live), v);
  }
  OSP_AVX2 static F gather(const float* base, const std::int32_t* idx,
                           Bits live) {
    const __m256i m = mask(live);
    return _mm256_mask_i32gather_ps(_mm256_setzero_ps(), base,
                                    _mm256_maskload_epi32(idx, m),
                                    _mm256_castsi256_ps(m), 4);
  }
  OSP_AVX2 static F add(F a, F b) { return _mm256_add_ps(a, b); }
  OSP_AVX2 static F sub(F a, F b) { return _mm256_sub_ps(a, b); }
  OSP_AVX2 static F mul(F a, F b) { return _mm256_mul_ps(a, b); }
  OSP_AVX2 static F min(F a, F b) { return _mm256_min_ps(a, b); }
  OSP_AVX2 static F max(F a, F b) { return _mm256_max_ps(a, b); }
  OSP_AVX2 static F abs(F a) { return _mm256_andnot_ps(set1(-0.0f), a); }
  OSP_AVX2 static F umax(F a, F b) {
    return _mm256_castsi256_ps(
        _mm256_max_epu32(_mm256_castps_si256(a), _mm256_castps_si256(b)));
  }
  OSP_AVX2 static F rint(F a) {
    return _mm256_round_ps(a, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  OSP_AVX2 static F copysign(F mag, F s) {
    return _mm256_or_ps(mag, _mm256_and_ps(s, set1(-0.0f)));
  }
  OSP_AVX2 static M gt(F a, F b) { return _mm256_cmp_ps(a, b, _CMP_GT_OQ); }
  OSP_AVX2 static M ge(F a, F b) { return _mm256_cmp_ps(a, b, _CMP_GE_OQ); }
  OSP_AVX2 static M eq(F a, F b) { return _mm256_cmp_ps(a, b, _CMP_EQ_OQ); }
  OSP_AVX2 static M nle(F a, F b) { return _mm256_cmp_ps(a, b, _CMP_NLE_UQ); }
  OSP_AVX2 static std::size_t count(M m) {
    return std::popcount(static_cast<unsigned>(_mm256_movemask_ps(m)));
  }
  OSP_AVX2 static F select(M m, F a, F b) { return _mm256_blendv_ps(b, a, m); }
  OSP_AVX2 static F keep(M m, F a) { return _mm256_and_ps(a, m); }
  OSP_AVX2 static M nonzero(const std::uint8_t* p) {
    const __m128i b = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
    return _mm256_castsi256_ps(
        _mm256_cmpgt_epi32(_mm256_cvtepu8_epi32(b), _mm256_setzero_si256()));
  }

  OSP_AVX2 static D widen_abs(const float* p) {
    const __m256d sign = _mm256_set1_pd(-0.0);
    return {_mm256_andnot_pd(sign, _mm256_cvtps_pd(_mm_loadu_ps(p))),
            _mm256_andnot_pd(sign, _mm256_cvtps_pd(_mm_loadu_ps(p + 4)))};
  }
  OSP_AVX2 static D dadd(D a, D b) {
    return {_mm256_add_pd(a.lo, b.lo), _mm256_add_pd(a.hi, b.hi)};
  }
  OSP_AVX2 static D dfma(D a, D b, D c) {
    return {_mm256_add_pd(c.lo, _mm256_mul_pd(a.lo, b.lo)),
            _mm256_add_pd(c.hi, _mm256_mul_pd(a.hi, b.hi))};
  }
  OSP_AVX2 static void dstore(double* out, D d) {
    _mm256_storeu_pd(out, d.lo);
    _mm256_storeu_pd(out + 4, d.hi);
  }
};

struct Avx512 {
  using Isa = Avx512;
  using F = __m512;
  using M = __mmask16;
  using D = __m512d;
  static constexpr std::size_t kWidth = 16;

  OSP_AVX512 static F set1(float x) { return _mm512_set1_ps(x); }
  OSP_AVX512 static F load(const float* p) { return _mm512_loadu_ps(p); }
  OSP_AVX512 static void store(float* p, F v) { _mm512_storeu_ps(p, v); }
  OSP_AVX512 static F load(const float* p, Bits live) {
    return _mm512_maskz_loadu_ps(static_cast<__mmask16>(live), p);
  }
  OSP_AVX512 static void store(float* p, F v, Bits live) {
    _mm512_mask_storeu_ps(p, static_cast<__mmask16>(live), v);
  }
  OSP_AVX512 static F gather(const float* base, const std::int32_t* idx,
                             Bits live) {
    const auto m = static_cast<__mmask16>(live);
    return _mm512_mask_i32gather_ps(_mm512_setzero_ps(), m,
                                    _mm512_maskz_loadu_epi32(m, idx), base, 4);
  }
  OSP_AVX512 static F add(F a, F b) { return _mm512_add_ps(a, b); }
  OSP_AVX512 static F sub(F a, F b) { return _mm512_sub_ps(a, b); }
  OSP_AVX512 static F mul(F a, F b) { return _mm512_mul_ps(a, b); }
  // min, max, umax, rint and widen_abs use the zero-masking intrinsics with
  // every lane live: they emit the same unmasked instructions, while GCC
  // 12's unmasked forms pass the instruction an uninitialized register that
  // -Wmaybe-uninitialized reports.
  static constexpr __mmask16 kAll = 0xffff;
  OSP_AVX512 static F min(F a, F b) { return _mm512_maskz_min_ps(kAll, a, b); }
  OSP_AVX512 static F max(F a, F b) { return _mm512_maskz_max_ps(kAll, a, b); }
  OSP_AVX512 static F abs(F a) { return _mm512_andnot_ps(set1(-0.0f), a); }
  OSP_AVX512 static F umax(F a, F b) {
    return _mm512_castsi512_ps(_mm512_maskz_max_epu32(
        kAll, _mm512_castps_si512(a), _mm512_castps_si512(b)));
  }
  OSP_AVX512 static F rint(F a) {
    return _mm512_maskz_roundscale_ps(
        kAll, a, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  OSP_AVX512 static F copysign(F mag, F s) {
    return _mm512_or_ps(mag, _mm512_and_ps(s, set1(-0.0f)));
  }
  template <int kCmp>
  OSP_AVX512 static M cmp(F a, F b) { return _mm512_cmp_ps_mask(a, b, kCmp); }
  OSP_AVX512 static M gt(F a, F b) { return cmp<_CMP_GT_OQ>(a, b); }
  OSP_AVX512 static M ge(F a, F b) { return cmp<_CMP_GE_OQ>(a, b); }
  OSP_AVX512 static M eq(F a, F b) { return cmp<_CMP_EQ_OQ>(a, b); }
  OSP_AVX512 static M nle(F a, F b) { return cmp<_CMP_NLE_UQ>(a, b); }
  OSP_AVX512 static std::size_t count(M m) { return std::popcount(m); }
  OSP_AVX512 static F select(M m, F a, F b) {
    return _mm512_mask_blend_ps(m, b, a);
  }
  OSP_AVX512 static F keep(M m, F a) { return _mm512_maskz_mov_ps(m, a); }
  OSP_AVX512 static M nonzero(const std::uint8_t* p) {
    const __m128i bytes = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    return _mm_test_epi8_mask(bytes, bytes);
  }

  OSP_AVX512 static D widen_abs(const float* p) {
    return _mm512_maskz_cvtps_pd(0xff, Avx2::abs(Avx2::load(p)));
  }
  OSP_AVX512 static D dadd(D a, D b) { return _mm512_add_pd(a, b); }
  OSP_AVX512 static D dfma(D a, D b, D c) { return _mm512_fmadd_pd(a, b, c); }
  OSP_AVX512 static void dstore(double* out, D d) { _mm512_storeu_pd(out, d); }
};

/// Avx2's lanes with AVX-512VL masked loads and stores, for the conv span
/// gathers: a span is one output row of 4–8 floats, and 16-lane loads
/// straddle cache lines (8 lanes: 6–20% faster there).
struct Avx512x8 : Avx2 {
  using Isa = Avx512;
  OSP_AVX512 static F load(const float* p, Bits live) {
    return _mm256_maskz_loadu_ps(static_cast<__mmask8>(live), p);
  }
  OSP_AVX512 static void store(float* p, F v, Bits live) {
    _mm256_mask_storeu_ps(p, static_cast<__mmask8>(live), v);
  }
};

#endif  // OSP_LANES_X86

/// Entry<Isa, kFn>::call runs kFn compiled for Isa, with kFn (OSP_INLINE)
/// and every lane op under it inlined. Scalar code needs no entry point.
template <class Isa, auto kFn>
struct Entry {
  static constexpr auto call = kFn;
};
#ifdef OSP_LANES_X86
template <class R, class... A, R (*kFn)(A...)>
struct Entry<Avx2, kFn> {
  __attribute__((flatten)) OSP_AVX2 static R call(A... a) { return kFn(a...); }
};
template <class R, class... A, R (*kFn)(A...)>
struct Entry<Avx512, kFn> {
  __attribute__((flatten)) OSP_AVX512 static R call(A... a) {
    return kFn(a...);
  }
};
#endif

/// The kernel kFn, written over lane type L, as a function pointer for L's
/// tier.
template <class L, auto kFn>
inline constexpr auto on = Entry<typename L::Isa, kFn>::call;

}  // namespace osp::util::lanes
