#include "util/simd.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define OSP_SIMD_X86 1
#endif

namespace osp::util::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar tier. The elementwise loops and wire codecs are the seed
// implementations verbatim; the double reductions implement the 8-lane
// accumulation tree that every vector tier reproduces exactly (lane j owns
// elements base+j mod 8 of the range, lane totals combined serially).
// ---------------------------------------------------------------------------

constexpr std::size_t kLanes = 8;

void axpy_scalar(float alpha, const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scale_scalar(float* x, float alpha, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= alpha;
}

void add_scalar(const float* a, const float* b, float* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] + b[i];
}

void add_copy2_scalar(const float* a, const float* b, float* d1, float* d2,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const float s = a[i] + b[i];
    d1[i] = s;
    d2[i] = s;
  }
}

void sub_scalar(const float* a, const float* b, float* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] - b[i];
}

/// Serial combine of the 8 lane totals — identical in every tier.
double combine_lanes(const double* lanes) {
  double s = 0.0;
  for (std::size_t j = 0; j < kLanes; ++j) s += lanes[j];
  return s;
}

double dot_scalar(const float* a, const float* b, std::size_t n) {
  double lanes[kLanes] = {};
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (std::size_t j = 0; j < kLanes; ++j) {
      lanes[j] += static_cast<double>(a[i + j]) * static_cast<double>(b[i + j]);
    }
  }
  for (std::size_t j = 0; i < n; ++i, ++j) {
    lanes[j] += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return combine_lanes(lanes);
}

double abs_prod_sum_scalar(const float* a, const float* b, std::size_t n) {
  double lanes[kLanes] = {};
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (std::size_t j = 0; j < kLanes; ++j) {
      lanes[j] += std::abs(static_cast<double>(a[i + j]) *
                           static_cast<double>(b[i + j]));
    }
  }
  for (std::size_t j = 0; i < n; ++i, ++j) {
    lanes[j] +=
        std::abs(static_cast<double>(a[i]) * static_cast<double>(b[i]));
  }
  return combine_lanes(lanes);
}

double l1_scalar(const float* x, std::size_t n) {
  double lanes[kLanes] = {};
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (std::size_t j = 0; j < kLanes; ++j) {
      lanes[j] += std::abs(static_cast<double>(x[i + j]));
    }
  }
  for (std::size_t j = 0; i < n; ++i, ++j) {
    lanes[j] += std::abs(static_cast<double>(x[i]));
  }
  return combine_lanes(lanes);
}

double l2sq_scalar(const float* x, std::size_t n) {
  double lanes[kLanes] = {};
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (std::size_t j = 0; j < kLanes; ++j) {
      lanes[j] +=
          static_cast<double>(x[i + j]) * static_cast<double>(x[i + j]);
    }
  }
  for (std::size_t j = 0; i < n; ++i, ++j) {
    lanes[j] += static_cast<double>(x[i]) * static_cast<double>(x[i]);
  }
  return combine_lanes(lanes);
}

float max_abs_scalar(const float* x, std::size_t n) {
  float m = 0.0f;
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, std::fabs(x[i]));
  return m;
}

void quantize_dequantize_scalar(float* x, float scale, float inv,
                                std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const float q = std::round(std::clamp(x[i] * inv, -127.0f, 127.0f));
    x[i] = q * scale;
  }
}

void abs_into_scalar(const float* x, float* mags, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) mags[i] = std::fabs(x[i]);
}

std::size_t count_gt_scalar(const float* mags, float threshold,
                            std::size_t n) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) count += mags[i] > threshold ? 1 : 0;
  return count;
}

std::size_t threshold_zero_scalar(float* grad, const float* mags,
                                  float threshold, std::size_t tie_slots,
                                  std::size_t n) {
  const std::size_t initial = tie_slots;
  for (std::size_t i = 0; i < n; ++i) {
    const float m = mags[i];
    if (m > threshold) continue;
    if (m == threshold && tie_slots > 0) {
      --tie_slots;
    } else {
      grad[i] = 0.0f;
    }
  }
  return initial - tie_slots;
}

/// Appends the indices j in [i, n) with values[j] != 0.0f to out[count..]
/// and returns the new count. Branch-free: every index is written, only
/// the nonzero ones advance the cursor (so out needs room for n entries).
std::size_t append_nonzero(const float* values, std::uint32_t* out,
                           std::size_t count, std::size_t i, std::size_t n) {
  for (; i < n; ++i) {
    out[count] = static_cast<std::uint32_t>(i);
    count += values[i] != 0.0f ? 1 : 0;
  }
  return count;
}

std::size_t nonzero_indices_scalar(const float* values, std::uint32_t* out,
                                   std::size_t n) {
  return append_nonzero(values, out, 0, 0, n);
}

void mask_zero_scalar(float* grad, const std::uint8_t* keep, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (keep[i] == 0) grad[i] = 0.0f;
  }
}

// Word-at-a-time bitmap codecs, both exhaustively verified against the
// per-bit loop. Packing multiplies a word of 0/1 bytes by the gather
// constant (byte k = 2^(7-k)): byte j's bit lands at position 8j+7+7k, so
// bit m of the top byte collects exactly byte m (all 64 partial exponents
// are distinct — no carries), matching the seed's per-bit format (bit i%8
// of output byte i/8). Unpacking replicates the mask byte across a word,
// isolates bit j in byte j via kBitSelect, and normalizes to 0/1 with an
// OR-fold.
constexpr std::uint64_t kPackGather = 0x0102040810204080ull;
constexpr std::uint64_t kBitSelect = 0x8040201008040201ull;
constexpr std::uint64_t kByteRep = 0x0101010101010101ull;

std::uint8_t pack8(const std::uint8_t* bytes) {
  std::uint64_t word;
  std::memcpy(&word, bytes, sizeof(word));
  // Normalize nonzero bytes to 1 before the multiply gather.
  word = (word | (word >> 4)) & 0x0f0f0f0f0f0f0f0full;
  word = (word | (word >> 2)) & 0x0303030303030303ull;
  word = (word | (word >> 1)) & kByteRep;
  return static_cast<std::uint8_t>((word * kPackGather) >> 56);
}

void pack_bits_scalar(const std::uint8_t* bytes, std::uint8_t* bits,
                      std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) bits[i / 8] = pack8(bytes + i);
  if (i < n) {
    std::uint8_t tail = 0;
    for (std::size_t j = 0; i + j < n; ++j) {
      if (bytes[i + j] != 0) tail |= static_cast<std::uint8_t>(1u << j);
    }
    bits[i / 8] = tail;
  }
}

void unpack8(std::uint8_t m, std::uint8_t* bytes) {
  std::uint64_t w = (static_cast<std::uint64_t>(m) * kByteRep) & kBitSelect;
  w |= w >> 4;
  w |= w >> 2;
  w |= w >> 1;
  w &= kByteRep;
  std::memcpy(bytes, &w, sizeof(w));
}

void unpack_bits_scalar(const std::uint8_t* bits, std::uint8_t* bytes,
                        std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) unpack8(bits[i / 8], bytes + i);
  for (; i < n; ++i) {
    bytes[i] = static_cast<std::uint8_t>((bits[i / 8] >> (i % 8)) & 1u);
  }
}

void relu_scalar(const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void relu_grad_scalar(const float* x, const float* g, float* d,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) d[i] = x[i] <= 0.0f ? 0.0f : g[i];
}

constexpr Kernels kScalarKernels = {
    axpy_scalar,          scale_scalar,    add_scalar,
    add_copy2_scalar,     sub_scalar,      dot_scalar,
    abs_prod_sum_scalar,  l1_scalar,       l2sq_scalar,
    max_abs_scalar,       quantize_dequantize_scalar,
    abs_into_scalar,      count_gt_scalar, threshold_zero_scalar,
    nonzero_indices_scalar,
    mask_zero_scalar,     pack_bits_scalar, unpack_bits_scalar,
    relu_scalar,          relu_grad_scalar,
};

#ifdef OSP_SIMD_X86

// ---------------------------------------------------------------------------
// AVX2 tier. Elementwise kernels issue the exact mul/add sequence of the
// scalar loops lane-by-lane; reductions realize the 8-lane tree as two
// 4-double accumulators (lanes 0-3 / 4-7).
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) void axpy_avx2(float alpha, const float* x,
                                               float* y, std::size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vy = _mm256_loadu_ps(y + i);
    const __m256 vx = _mm256_loadu_ps(x + i);
    _mm256_storeu_ps(y + i, _mm256_add_ps(vy, _mm256_mul_ps(va, vx)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

__attribute__((target("avx2"))) void scale_avx2(float* x, float alpha,
                                                std::size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), va));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

__attribute__((target("avx2"))) void add_avx2(const float* a, const float* b,
                                              float* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        dst + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] + b[i];
}

__attribute__((target("avx2"))) void add_copy2_avx2(const float* a,
                                                    const float* b, float* d1,
                                                    float* d2, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 s =
        _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    _mm256_storeu_ps(d1 + i, s);
    _mm256_storeu_ps(d2 + i, s);
  }
  for (; i < n; ++i) {
    const float s = a[i] + b[i];
    d1[i] = s;
    d2[i] = s;
  }
}

__attribute__((target("avx2"))) void sub_avx2(const float* a, const float* b,
                                              float* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        dst + i, _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] - b[i];
}

// Reduction helpers: convert the low/high float quads of a 256-bit load to
// doubles, keeping lane j = element (base + j).

#define OSP_REDUCE_TAIL(expr)                           \
  alignas(32) double lanes[kLanes];                     \
  _mm256_storeu_pd(lanes, lo);                          \
  _mm256_storeu_pd(lanes + 4, hi);                      \
  for (std::size_t j = 0; i < n; ++i, ++j) lanes[j] += (expr); \
  return combine_lanes(lanes)

__attribute__((target("avx2"))) double dot_avx2(const float* a, const float* b,
                                                std::size_t n) {
  __m256d lo = _mm256_setzero_pd(), hi = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256 vb = _mm256_loadu_ps(b + i);
    const __m256d alo = _mm256_cvtps_pd(_mm256_castps256_ps128(va));
    const __m256d ahi = _mm256_cvtps_pd(_mm256_extractf128_ps(va, 1));
    const __m256d blo = _mm256_cvtps_pd(_mm256_castps256_ps128(vb));
    const __m256d bhi = _mm256_cvtps_pd(_mm256_extractf128_ps(vb, 1));
    lo = _mm256_add_pd(lo, _mm256_mul_pd(alo, blo));
    hi = _mm256_add_pd(hi, _mm256_mul_pd(ahi, bhi));
  }
  OSP_REDUCE_TAIL(static_cast<double>(a[i]) * static_cast<double>(b[i]));
}

__attribute__((target("avx2"))) double abs_prod_sum_avx2(const float* a,
                                                         const float* b,
                                                         std::size_t n) {
  const __m256d dsign = _mm256_set1_pd(-0.0);
  __m256d lo = _mm256_setzero_pd(), hi = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256 vb = _mm256_loadu_ps(b + i);
    const __m256d plo =
        _mm256_mul_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(va)),
                      _mm256_cvtps_pd(_mm256_castps256_ps128(vb)));
    const __m256d phi =
        _mm256_mul_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(va, 1)),
                      _mm256_cvtps_pd(_mm256_extractf128_ps(vb, 1)));
    lo = _mm256_add_pd(lo, _mm256_andnot_pd(dsign, plo));
    hi = _mm256_add_pd(hi, _mm256_andnot_pd(dsign, phi));
  }
  OSP_REDUCE_TAIL(
      std::abs(static_cast<double>(a[i]) * static_cast<double>(b[i])));
}

__attribute__((target("avx2"))) double l1_avx2(const float* x, std::size_t n) {
  const __m256 fsign = _mm256_set1_ps(-0.0f);
  __m256d lo = _mm256_setzero_pd(), hi = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_andnot_ps(fsign, _mm256_loadu_ps(x + i));
    lo = _mm256_add_pd(lo, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
    hi = _mm256_add_pd(hi, _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
  }
  OSP_REDUCE_TAIL(std::abs(static_cast<double>(x[i])));
}

__attribute__((target("avx2"))) double l2sq_avx2(const float* x,
                                                 std::size_t n) {
  __m256d lo = _mm256_setzero_pd(), hi = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256d vlo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
    const __m256d vhi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
    lo = _mm256_add_pd(lo, _mm256_mul_pd(vlo, vlo));
    hi = _mm256_add_pd(hi, _mm256_mul_pd(vhi, vhi));
  }
  OSP_REDUCE_TAIL(static_cast<double>(x[i]) * static_cast<double>(x[i]));
}

__attribute__((target("avx2"))) float max_abs_avx2(const float* x,
                                                   std::size_t n) {
  const __m256 fsign = _mm256_set1_ps(-0.0f);
  __m256 vm = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    vm = _mm256_max_ps(vm, _mm256_andnot_ps(fsign, _mm256_loadu_ps(x + i)));
  }
  alignas(32) float m8[8];
  _mm256_storeu_ps(m8, vm);
  float m = 0.0f;
  for (float v : m8) m = std::max(m, v);
  for (; i < n; ++i) m = std::max(m, std::fabs(x[i]));
  return m;
}

// round-half-away-from-zero (std::round) built from round-half-even:
// t = rint(q); fix t += copysign(1, q) exactly when q - t == copysign(.5, q)
// (q was an exact half rounded toward zero by rint). Proven identical to
// std::round for all finite q; the clamp keeps |q| <= 127 anyway.
__attribute__((target("avx2"))) void quantize_dequantize_avx2(float* x,
                                                              float scale,
                                                              float inv,
                                                              std::size_t n) {
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256 vscale = _mm256_set1_ps(scale);
  const __m256 vlo = _mm256_set1_ps(-127.0f);
  const __m256 vhi = _mm256_set1_ps(127.0f);
  const __m256 fsign = _mm256_set1_ps(-0.0f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 one = _mm256_set1_ps(1.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 q = _mm256_min_ps(
        _mm256_max_ps(_mm256_mul_ps(_mm256_loadu_ps(x + i), vinv), vlo), vhi);
    __m256 t = _mm256_round_ps(q, _MM_FROUND_TO_NEAREST_INT |
                                      _MM_FROUND_NO_EXC);
    const __m256 sign_bits = _mm256_and_ps(q, fsign);
    const __m256 fix =
        _mm256_cmp_ps(_mm256_sub_ps(q, t), _mm256_or_ps(sign_bits, half),
                      _CMP_EQ_OQ);
    t = _mm256_blendv_ps(t, _mm256_add_ps(t, _mm256_or_ps(sign_bits, one)),
                         fix);
    _mm256_storeu_ps(x + i, _mm256_mul_ps(t, vscale));
  }
  for (; i < n; ++i) {
    const float q = std::round(std::clamp(x[i] * inv, -127.0f, 127.0f));
    x[i] = q * scale;
  }
}

__attribute__((target("avx2"))) void abs_into_avx2(const float* x, float* mags,
                                                   std::size_t n) {
  const __m256 fsign = _mm256_set1_ps(-0.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(mags + i,
                     _mm256_andnot_ps(fsign, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) mags[i] = std::fabs(x[i]);
}

__attribute__((target("avx2"))) std::size_t count_gt_avx2(const float* mags,
                                                          float threshold,
                                                          std::size_t n) {
  const __m256 vt = _mm256_set1_ps(threshold);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 gt = _mm256_cmp_ps(_mm256_loadu_ps(mags + i), vt, _CMP_GT_OQ);
    count += static_cast<std::size_t>(
        __builtin_popcount(static_cast<unsigned>(_mm256_movemask_ps(gt))));
  }
  for (; i < n; ++i) count += mags[i] > threshold ? 1 : 0;
  return count;
}

__attribute__((target("avx2"))) std::size_t threshold_zero_avx2(
    float* grad, const float* mags, float threshold, std::size_t tie_slots,
    std::size_t n) {
  const std::size_t initial = tie_slots;
  const __m256 vt = _mm256_set1_ps(threshold);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 m = _mm256_loadu_ps(mags + i);
    const auto ties = static_cast<std::size_t>(__builtin_popcount(
        static_cast<unsigned>(
            _mm256_movemask_ps(_mm256_cmp_ps(m, vt, _CMP_EQ_OQ)))));
    __m256 keep;
    if (ties == 0 || tie_slots == 0) {
      keep = _mm256_cmp_ps(m, vt, _CMP_GT_OQ);  // any ties are zeroed
    } else if (ties <= tie_slots) {
      keep = _mm256_cmp_ps(m, vt, _CMP_GE_OQ);  // every tie fits the budget
      tie_slots -= ties;
    } else {
      // The budget runs out inside this block, which happens at most once
      // per call: walk its lanes in index order like the scalar tier.
      tie_slots -= threshold_zero_scalar(grad + i, mags + i, threshold,
                                         tie_slots, 8);
      continue;
    }
    // Zeroed lanes become +0 (as the scalar tier writes); kept lanes keep
    // their bits, −0 included.
    _mm256_storeu_ps(grad + i, _mm256_and_ps(_mm256_loadu_ps(grad + i), keep));
  }
  tie_slots -= threshold_zero_scalar(grad + i, mags + i, threshold, tie_slots,
                                     n - i);
  return initial - tie_slots;
}

// Compress-store table for AVX2, which has no vpcompressd: byte j of
// entry m is the lane number of the j-th set bit of the 8-bit mask m.
constexpr std::array<std::uint64_t, 256> make_compress_lut() {
  std::array<std::uint64_t, 256> lut{};
  for (unsigned m = 0; m < 256; ++m) {
    unsigned slot = 0;
    for (std::uint64_t lane = 0; lane < 8; ++lane) {
      if (((m >> lane) & 1u) != 0) lut[m] |= lane << (8 * slot++);
    }
  }
  return lut;
}
constexpr std::array<std::uint64_t, 256> kCompressLut = make_compress_lut();

__attribute__((target("avx2"))) std::size_t nonzero_indices_avx2(
    const float* values, std::uint32_t* out, std::size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // NEQ_UQ is C++ `!=`: −0 compares equal to 0, NaN is unordered.
    const auto nz = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_cmp_ps(_mm256_loadu_ps(values + i), zero, _CMP_NEQ_UQ)));
    const __m256i lanes = _mm256_cvtepu8_epi32(_mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(&kCompressLut[nz])));
    // A full 8-lane store: count <= i, so it stays inside out[0, n).
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + count),
        _mm256_add_epi32(lanes, _mm256_set1_epi32(static_cast<int>(i))));
    count += static_cast<std::size_t>(__builtin_popcount(nz));
  }
  return append_nonzero(values, out, count, i, n);
}

__attribute__((target("avx2"))) void mask_zero_avx2(float* grad,
                                                    const std::uint8_t* keep,
                                                    std::size_t n) {
  const __m256i zero = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i bytes =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(keep + i));
    const __m256i lanes32 = _mm256_cvtepu8_epi32(bytes);
    const __m256i keep_mask = _mm256_cmpgt_epi32(lanes32, zero);
    _mm256_storeu_ps(grad + i,
                     _mm256_and_ps(_mm256_loadu_ps(grad + i),
                                   _mm256_castsi256_ps(keep_mask)));
  }
  for (; i < n; ++i) {
    if (keep[i] == 0) grad[i] = 0.0f;
  }
}

__attribute__((target("avx2"))) void pack_bits_avx2(const std::uint8_t* bytes,
                                                    std::uint8_t* bits,
                                                    std::size_t n) {
  const __m256i zero = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bytes + i));
    const std::uint32_t is_zero = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, zero)));
    const std::uint32_t mask = ~is_zero;
    std::memcpy(bits + i / 8, &mask, sizeof(mask));
  }
  if (i < n) pack_bits_scalar(bytes + i, bits + i / 8, n - i);
}

__attribute__((target("avx2"))) void unpack_bits_avx2(const std::uint8_t* bits,
                                                      std::uint8_t* bytes,
                                                      std::size_t n) {
  // Replicate each mask byte across its 8 output lanes, test the lane's
  // bit, normalize to 0/1.
  const __m256i ctrl = _mm256_setr_epi8(0, 0, 0, 0, 0, 0, 0, 0,  //
                                        1, 1, 1, 1, 1, 1, 1, 1,  //
                                        2, 2, 2, 2, 2, 2, 2, 2,  //
                                        3, 3, 3, 3, 3, 3, 3, 3);
  const __m256i bitsel = _mm256_set1_epi64x(
      static_cast<long long>(0x8040201008040201ull));
  const __m256i ones = _mm256_set1_epi8(1);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    std::uint32_t mask;
    std::memcpy(&mask, bits + i / 8, sizeof(mask));
    const __m256i rep =
        _mm256_shuffle_epi8(_mm256_set1_epi32(static_cast<int>(mask)), ctrl);
    const __m256i sel = _mm256_and_si256(rep, bitsel);
    const __m256i set = _mm256_cmpeq_epi8(sel, bitsel);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(bytes + i),
                        _mm256_and_si256(set, ones));
  }
  if (i < n) unpack_bits_scalar(bits + i / 8, bytes + i, n - i);
}

__attribute__((target("avx2"))) void relu_avx2(const float* x, float* y,
                                               std::size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    _mm256_storeu_ps(y + i,
                     _mm256_and_ps(v, _mm256_cmp_ps(v, zero, _CMP_GT_OQ)));
  }
  for (; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

__attribute__((target("avx2"))) void relu_grad_avx2(const float* x,
                                                    const float* g, float* d,
                                                    std::size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 kill =
        _mm256_cmp_ps(_mm256_loadu_ps(x + i), zero, _CMP_LE_OQ);
    _mm256_storeu_ps(d + i, _mm256_andnot_ps(kill, _mm256_loadu_ps(g + i)));
  }
  for (; i < n; ++i) d[i] = x[i] <= 0.0f ? 0.0f : g[i];
}

// ---------------------------------------------------------------------------
// AVX-512 tier (F+BW+DQ+VL). Same contracts at twice the width; the
// reductions keep the single 8-double-lane accumulator, so the tree is
// unchanged — AVX-512 just halves the instruction count per 8 elements.
// ---------------------------------------------------------------------------

#define OSP_T512 "avx512f,avx512bw,avx512dq,avx512vl"

__attribute__((target(OSP_T512))) void axpy_avx512(float alpha,
                                                   const float* x, float* y,
                                                   std::size_t n) {
  const __m512 va = _mm512_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 vy = _mm512_loadu_ps(y + i);
    const __m512 vx = _mm512_loadu_ps(x + i);
    _mm512_storeu_ps(y + i, _mm512_add_ps(vy, _mm512_mul_ps(va, vx)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

__attribute__((target(OSP_T512))) void scale_avx512(float* x, float alpha,
                                                    std::size_t n) {
  const __m512 va = _mm512_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(x + i, _mm512_mul_ps(_mm512_loadu_ps(x + i), va));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

__attribute__((target(OSP_T512))) void add_avx512(const float* a,
                                                  const float* b, float* dst,
                                                  std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(
        dst + i, _mm512_add_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] + b[i];
}

__attribute__((target(OSP_T512))) void add_copy2_avx512(const float* a,
                                                        const float* b,
                                                        float* d1, float* d2,
                                                        std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 s =
        _mm512_add_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i));
    _mm512_storeu_ps(d1 + i, s);
    _mm512_storeu_ps(d2 + i, s);
  }
  for (; i < n; ++i) {
    const float s = a[i] + b[i];
    d1[i] = s;
    d2[i] = s;
  }
}

__attribute__((target(OSP_T512))) void sub_avx512(const float* a,
                                                  const float* b, float* dst,
                                                  std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(
        dst + i, _mm512_sub_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] - b[i];
}

#define OSP_REDUCE_TAIL_512(expr)                        \
  alignas(64) double lanes[kLanes];                      \
  _mm512_storeu_pd(lanes, acc);                          \
  for (std::size_t j = 0; i < n; ++i, ++j) lanes[j] += (expr); \
  return combine_lanes(lanes)

__attribute__((target(OSP_T512))) double dot_avx512(const float* a,
                                                    const float* b,
                                                    std::size_t n) {
  __m512d acc = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_fmadd_pd(_mm512_cvtps_pd(_mm256_loadu_ps(a + i)),
                          _mm512_cvtps_pd(_mm256_loadu_ps(b + i)), acc);
  }
  OSP_REDUCE_TAIL_512(static_cast<double>(a[i]) * static_cast<double>(b[i]));
}

__attribute__((target(OSP_T512))) double abs_prod_sum_avx512(const float* a,
                                                             const float* b,
                                                             std::size_t n) {
  const __m256 fsign = _mm256_set1_ps(-0.0f);
  __m512d acc = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 va = _mm256_andnot_ps(fsign, _mm256_loadu_ps(a + i));
    const __m256 vb = _mm256_andnot_ps(fsign, _mm256_loadu_ps(b + i));
    acc = _mm512_fmadd_pd(_mm512_cvtps_pd(va), _mm512_cvtps_pd(vb), acc);
  }
  OSP_REDUCE_TAIL_512(
      std::abs(static_cast<double>(a[i]) * static_cast<double>(b[i])));
}

__attribute__((target(OSP_T512))) double l1_avx512(const float* x,
                                                   std::size_t n) {
  const __m256 fsign = _mm256_set1_ps(-0.0f);
  __m512d acc = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_add_pd(
        acc,
        _mm512_cvtps_pd(_mm256_andnot_ps(fsign, _mm256_loadu_ps(x + i))));
  }
  OSP_REDUCE_TAIL_512(std::abs(static_cast<double>(x[i])));
}

__attribute__((target(OSP_T512))) double l2sq_avx512(const float* x,
                                                     std::size_t n) {
  __m512d acc = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d v = _mm512_cvtps_pd(_mm256_loadu_ps(x + i));
    acc = _mm512_fmadd_pd(v, v, acc);
  }
  OSP_REDUCE_TAIL_512(static_cast<double>(x[i]) * static_cast<double>(x[i]));
}

__attribute__((target(OSP_T512))) float max_abs_avx512(const float* x,
                                                       std::size_t n) {
  const __m512 fsign = _mm512_set1_ps(-0.0f);
  __m512 vm = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    vm = _mm512_max_ps(vm, _mm512_andnot_ps(fsign, _mm512_loadu_ps(x + i)));
  }
  float m = _mm512_reduce_max_ps(vm);
  for (; i < n; ++i) m = std::max(m, std::fabs(x[i]));
  return m;
}

__attribute__((target(OSP_T512))) void quantize_dequantize_avx512(
    float* x, float scale, float inv, std::size_t n) {
  const __m512 vinv = _mm512_set1_ps(inv);
  const __m512 vscale = _mm512_set1_ps(scale);
  const __m512 vlo = _mm512_set1_ps(-127.0f);
  const __m512 vhi = _mm512_set1_ps(127.0f);
  const __m512 fsign = _mm512_set1_ps(-0.0f);
  const __m512 half = _mm512_set1_ps(0.5f);
  const __m512 one = _mm512_set1_ps(1.0f);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 q = _mm512_min_ps(
        _mm512_max_ps(_mm512_mul_ps(_mm512_loadu_ps(x + i), vinv), vlo), vhi);
    __m512 t = _mm512_roundscale_ps(
        q, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    const __m512 sign_bits = _mm512_and_ps(q, fsign);
    const __mmask16 fix = _mm512_cmp_ps_mask(
        _mm512_sub_ps(q, t), _mm512_or_ps(sign_bits, half), _CMP_EQ_OQ);
    t = _mm512_mask_add_ps(t, fix, t, _mm512_or_ps(sign_bits, one));
    _mm512_storeu_ps(x + i, _mm512_mul_ps(t, vscale));
  }
  for (; i < n; ++i) {
    const float q = std::round(std::clamp(x[i] * inv, -127.0f, 127.0f));
    x[i] = q * scale;
  }
}

__attribute__((target(OSP_T512))) void abs_into_avx512(const float* x,
                                                       float* mags,
                                                       std::size_t n) {
  const __m512 fsign = _mm512_set1_ps(-0.0f);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(mags + i,
                     _mm512_andnot_ps(fsign, _mm512_loadu_ps(x + i)));
  }
  for (; i < n; ++i) mags[i] = std::fabs(x[i]);
}

__attribute__((target(OSP_T512))) std::size_t count_gt_avx512(
    const float* mags, float threshold, std::size_t n) {
  const __m512 vt = _mm512_set1_ps(threshold);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __mmask16 gt =
        _mm512_cmp_ps_mask(_mm512_loadu_ps(mags + i), vt, _CMP_GT_OQ);
    count += static_cast<std::size_t>(__builtin_popcount(gt));
  }
  for (; i < n; ++i) count += mags[i] > threshold ? 1 : 0;
  return count;
}

__attribute__((target(OSP_T512))) std::size_t threshold_zero_avx512(
    float* grad, const float* mags, float threshold, std::size_t tie_slots,
    std::size_t n) {
  const std::size_t initial = tie_slots;
  const __m512 vt = _mm512_set1_ps(threshold);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 m = _mm512_loadu_ps(mags + i);
    const auto ties = static_cast<std::size_t>(
        __builtin_popcount(_mm512_cmp_ps_mask(m, vt, _CMP_EQ_OQ)));
    __mmask16 keep;
    if (ties == 0 || tie_slots == 0) {
      keep = _mm512_cmp_ps_mask(m, vt, _CMP_GT_OQ);
    } else if (ties <= tie_slots) {
      keep = _mm512_cmp_ps_mask(m, vt, _CMP_GE_OQ);
      tie_slots -= ties;
    } else {
      tie_slots -= threshold_zero_scalar(grad + i, mags + i, threshold,
                                         tie_slots, 16);
      continue;
    }
    _mm512_storeu_ps(grad + i,
                     _mm512_maskz_mov_ps(keep, _mm512_loadu_ps(grad + i)));
  }
  tie_slots -= threshold_zero_scalar(grad + i, mags + i, threshold, tie_slots,
                                     n - i);
  return initial - tie_slots;
}

__attribute__((target(OSP_T512))) std::size_t nonzero_indices_avx512(
    const float* values, std::uint32_t* out, std::size_t n) {
  const __m512 zero = _mm512_setzero_ps();
  const __m512i step = _mm512_set1_epi32(16);
  __m512i idx = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                  13, 14, 15);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __mmask16 nz =
        _mm512_cmp_ps_mask(_mm512_loadu_ps(values + i), zero, _CMP_NEQ_UQ);
    // Register-form vpcompressd plus a full-width store (the memory form
    // is microcoded on some cores); count <= i keeps it inside out[0, n).
    _mm512_storeu_si512(out + count, _mm512_maskz_compress_epi32(nz, idx));
    count += static_cast<std::size_t>(__builtin_popcount(nz));
    idx = _mm512_add_epi32(idx, step);
  }
  return append_nonzero(values, out, count, i, n);
}

__attribute__((target(OSP_T512))) void mask_zero_avx512(
    float* grad, const std::uint8_t* keep, std::size_t n) {
  const __m512i zero = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i bytes =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(keep + i));
    const __mmask16 keep_mask =
        _mm512_cmpgt_epi32_mask(_mm512_cvtepu8_epi32(bytes), zero);
    _mm512_storeu_ps(
        grad + i, _mm512_maskz_mov_ps(keep_mask, _mm512_loadu_ps(grad + i)));
  }
  for (; i < n; ++i) {
    if (keep[i] == 0) grad[i] = 0.0f;
  }
}

__attribute__((target(OSP_T512))) void pack_bits_avx512(
    const std::uint8_t* bytes, std::uint8_t* bits, std::size_t n) {
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i v =
        _mm512_loadu_si512(reinterpret_cast<const void*>(bytes + i));
    const std::uint64_t mask = _mm512_test_epi8_mask(v, v);
    std::memcpy(bits + i / 8, &mask, sizeof(mask));
  }
  if (i < n) pack_bits_scalar(bytes + i, bits + i / 8, n - i);
}

__attribute__((target(OSP_T512))) void unpack_bits_avx512(
    const std::uint8_t* bits, std::uint8_t* bytes, std::size_t n) {
  const __m512i ones = _mm512_set1_epi8(1);
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    std::uint64_t mask;
    std::memcpy(&mask, bits + i / 8, sizeof(mask));
    _mm512_storeu_si512(reinterpret_cast<void*>(bytes + i),
                        _mm512_maskz_mov_epi8(mask, ones));
  }
  if (i < n) unpack_bits_scalar(bits + i / 8, bytes + i, n - i);
}

__attribute__((target(OSP_T512))) void relu_avx512(const float* x, float* y,
                                                   std::size_t n) {
  const __m512 zero = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 v = _mm512_loadu_ps(x + i);
    _mm512_storeu_ps(
        y + i, _mm512_maskz_mov_ps(_mm512_cmp_ps_mask(v, zero, _CMP_GT_OQ), v));
  }
  for (; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

__attribute__((target(OSP_T512))) void relu_grad_avx512(const float* x,
                                                        const float* g,
                                                        float* d,
                                                        std::size_t n) {
  const __m512 zero = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    // Not-less-or-equal, unordered: true for x > 0 and for NaN.
    const __mmask16 keep =
        _mm512_cmp_ps_mask(_mm512_loadu_ps(x + i), zero, _CMP_NLE_UQ);
    _mm512_storeu_ps(d + i, _mm512_maskz_mov_ps(keep, _mm512_loadu_ps(g + i)));
  }
  for (; i < n; ++i) d[i] = x[i] <= 0.0f ? 0.0f : g[i];
}

#undef OSP_T512
#undef OSP_REDUCE_TAIL
#undef OSP_REDUCE_TAIL_512

constexpr Kernels kAvx2Kernels = {
    axpy_avx2,          scale_avx2,    add_avx2,
    add_copy2_avx2,     sub_avx2,      dot_avx2,
    abs_prod_sum_avx2,  l1_avx2,       l2sq_avx2,
    max_abs_avx2,       quantize_dequantize_avx2,
    abs_into_avx2,      count_gt_avx2, threshold_zero_avx2,
    nonzero_indices_avx2,
    mask_zero_avx2,     pack_bits_avx2, unpack_bits_avx2,
    relu_avx2,          relu_grad_avx2,
};

constexpr Kernels kAvx512Kernels = {
    axpy_avx512,          scale_avx512,    add_avx512,
    add_copy2_avx512,     sub_avx512,      dot_avx512,
    abs_prod_sum_avx512,  l1_avx512,       l2sq_avx512,
    max_abs_avx512,       quantize_dequantize_avx512,
    abs_into_avx512,      count_gt_avx512, threshold_zero_avx512,
    nonzero_indices_avx512,
    mask_zero_avx512,     pack_bits_avx512, unpack_bits_avx512,
    relu_avx512,          relu_grad_avx512,
};

#endif  // OSP_SIMD_X86

Tier detect_hardware_tier() {
#ifdef OSP_SIMD_X86
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl")) {
    return Tier::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) return Tier::kAvx2;
#endif
  return Tier::kScalar;
}

Tier clamp_to_hardware(Tier t) { return std::min(t, hardware_tier()); }

Tier env_default_tier() {
  const Tier hw = hardware_tier();
  if (const char* env = std::getenv("OSP_SIMD_TIER")) {
    if (const auto parsed = parse_tier(env)) return clamp_to_hardware(*parsed);
  }
  return hw;
}

std::atomic<Tier> g_active_tier{env_default_tier()};

}  // namespace

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

std::optional<Tier> parse_tier(std::string_view name) {
  if (name == "scalar") return Tier::kScalar;
  if (name == "avx2") return Tier::kAvx2;
  if (name == "avx512") return Tier::kAvx512;
  return std::nullopt;
}

Tier hardware_tier() {
  static const Tier hw = detect_hardware_tier();
  return hw;
}

Tier active_tier() { return g_active_tier.load(std::memory_order_relaxed); }

Tier force_tier(Tier t) {
  const Tier installed = clamp_to_hardware(t);
  g_active_tier.store(installed, std::memory_order_relaxed);
  return installed;
}

void reset_tier() {
  g_active_tier.store(env_default_tier(), std::memory_order_relaxed);
}

const Kernels& kernels(Tier t) {
#ifdef OSP_SIMD_X86
  switch (clamp_to_hardware(t)) {
    case Tier::kAvx512:
      return kAvx512Kernels;
    case Tier::kAvx2:
      return kAvx2Kernels;
    case Tier::kScalar:
      break;
  }
#else
  (void)t;
#endif
  return kScalarKernels;
}

}  // namespace osp::util::simd
