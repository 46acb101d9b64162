#include "util/simd.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "util/lanes.hpp"

namespace osp::util::simd {

namespace {

using lanes::on;
using lanes::Scalar;

// ---------------------------------------------------------------------------
// Kernels written once over a lane type L (util/lanes.hpp). Each lambda is
// called with an L for the whole blocks and a Scalar for the tail, so the
// tail runs the same ops one lane wide.
// ---------------------------------------------------------------------------

/// body(L{}, i) on each whole block of L lanes in [0, n), then
/// body(Scalar{}, i) on each element of the tail.
template <class L, class Body>
OSP_INLINE inline void each(std::size_t n, Body body) {
  const std::size_t whole = n - n % L::kWidth;
  for (std::size_t i = 0; i < whole; i += L::kWidth) body(L{}, i);
  for (std::size_t i = whole; i < n; ++i) body(Scalar{}, i);
}

/// block(a + i, b + i) on each whole kWidth-float block of a and b, then
/// block on zero-padded copies of their tail. Only for folds that a lane of
/// +0 does not change.
template <std::size_t kWidth, class Block>
OSP_INLINE inline void padded(const float* a, const float* b, std::size_t n,
                              Block block) {
  std::size_t i = 0;
  for (; i + kWidth <= n; i += kWidth) block(a + i, b + i);
  if (i == n) return;
  float pa[kWidth] = {}, pb[kWidth] = {};
  std::copy(a + i, a + n, pa);
  std::copy(b + i, b + n, pb);
  block(pa, pb);
}

template <class L>
OSP_INLINE inline void axpy(float alpha, const float* x, float* y,
                            std::size_t n) {
  each<L>(n, [&](auto l, std::size_t i) OSP_INLINE {
    l.store(y + i, l.add(l.load(y + i), l.mul(l.set1(alpha), l.load(x + i))));
  });
}

template <class L>
OSP_INLINE inline void scale(float* x, float alpha, std::size_t n) {
  each<L>(n, [&](auto l, std::size_t i) OSP_INLINE {
    l.store(x + i, l.mul(l.load(x + i), l.set1(alpha)));
  });
}

template <class L>
OSP_INLINE inline void add(const float* a, const float* b, float* dst,
                           std::size_t n) {
  each<L>(n, [&](auto l, std::size_t i) OSP_INLINE {
    l.store(dst + i, l.add(l.load(a + i), l.load(b + i)));
  });
}

template <class L>
OSP_INLINE inline void add_copy2(const float* a, const float* b, float* d1,
                                 float* d2, std::size_t n) {
  each<L>(n, [&](auto l, std::size_t i) OSP_INLINE {
    const auto s = l.add(l.load(a + i), l.load(b + i));
    l.store(d1 + i, s);
    l.store(d2 + i, s);
  });
}

template <class L>
OSP_INLINE inline void sub(const float* a, const float* b, float* dst,
                           std::size_t n) {
  each<L>(n, [&](auto l, std::size_t i) OSP_INLINE {
    l.store(dst + i, l.sub(l.load(a + i), l.load(b + i)));
  });
}

/// The 8-lane tree of simd.hpp: fold(acc, a + i, b + i) adds elements
/// [i, i + 8) to lanes 0–7 of acc, and the lane totals are summed in lane
/// order.
/// The zero-padded tail block adds +0 to the lanes past the tail, which
/// changes none: every term is ≥ +0 or NaN, so no lane ever holds −0.
template <class L, class Fold>
OSP_INLINE inline double tree8(const float* a, const float* b, std::size_t n,
                               Fold fold) {
  typename L::D acc{};
  padded<8>(a, b, n, [&](const float* pa, const float* pb) OSP_INLINE {
    fold(acc, pa, pb);
  });
  double lane[8];
  L::dstore(lane, acc);
  double s = 0.0;
  for (double v : lane) s += v;
  return s;
}

template <class L>
OSP_INLINE inline double abs_prod_sum(const float* a, const float* b,
                                      std::size_t n) {
  return tree8<L>(a, b, n, [](auto& acc, const float* pa, const float* pb)
                               OSP_INLINE {
    acc = L::dfma(L::widen_abs(pa), L::widen_abs(pb), acc);
  });
}

template <class L>
OSP_INLINE inline double l1(const float* x, std::size_t n) {
  return tree8<L>(x, x, n, [](auto& acc, const float* p, const float*)
                               OSP_INLINE {
    acc = L::dadd(acc, L::widen_abs(p));
  });
}

/// Max over the magnitudes' bit patterns, so NaN ranks above +inf in every
/// tier; |0| pads the tail.
template <class L>
OSP_INLINE inline float max_abs(const float* x, std::size_t n) {
  typename L::F m = L::set1(0.0f);
  padded<L::kWidth>(x, x, n, [&](const float* p, const float*) OSP_INLINE {
    m = L::umax(m, L::abs(L::load(p)));
  });
  float lane[L::kWidth];
  L::store(lane, m);
  float s = 0.0f;
  for (float v : lane) s = Scalar::umax(s, v);
  return s;
}

/// std::round (half away from zero) from rint (half to even): where q sat
/// exactly halfway and rint went toward zero, step t one away from zero.
/// Identical to std::round(std::clamp(x·inv, −127, 127)) on finite input.
template <class L>
OSP_INLINE inline void quantize_dequantize(float* x, float scale, float inv,
                                           std::size_t n) {
  each<L>(n, [&](auto l, std::size_t i) OSP_INLINE {
    const auto q = l.min(l.max(l.mul(l.load(x + i), l.set1(inv)),
                               l.set1(-127.0f)),
                         l.set1(127.0f));
    const auto t = l.rint(q);
    const auto fix = l.eq(l.sub(q, t), l.copysign(l.set1(0.5f), q));
    const auto away = l.add(t, l.copysign(l.set1(1.0f), q));
    l.store(x + i, l.mul(l.select(fix, away, t), l.set1(scale)));
  });
}

template <class L>
OSP_INLINE inline void abs_into(const float* x, float* mags, std::size_t n) {
  each<L>(n, [&](auto l, std::size_t i) OSP_INLINE {
    l.store(mags + i, l.abs(l.load(x + i)));
  });
}

template <class L>
OSP_INLINE inline std::size_t count_gt(const float* mags, float threshold,
                                       std::size_t n) {
  std::size_t count = 0;
  each<L>(n, [&](auto l, std::size_t i) OSP_INLINE {
    count += l.count(l.gt(l.load(mags + i), l.set1(threshold)));
  });
  return count;
}

/// One block of threshold_zero. The budget is empty (a gt-masked store), or
/// the block's ties all fit it (a ge-masked store), or it runs out inside
/// the block, which happens at most once per call: then the block's lanes
/// are walked in index order, one lane wide.
template <class V>
OSP_INLINE inline void zero_block(float* grad, const float* mags, float t,
                                  std::size_t& slots) {
  const auto m = V::load(mags), vt = V::set1(t);
  const std::size_t ties = V::count(V::eq(m, vt));
  const bool spend = slots > 0;
  if constexpr (V::kWidth > 1) {
    if (spend && ties > slots) [[unlikely]] {
      for (std::size_t j = 0; j < V::kWidth; ++j) {
        zero_block<Scalar>(grad + j, mags + j, t, slots);
      }
      return;
    }
  }
  // Zeroed lanes become +0; kept lanes keep their bits, −0 included.
  V::store(grad, V::keep(spend ? V::ge(m, vt) : V::gt(m, vt), V::load(grad)));
  if (spend) slots -= ties;
}

template <class L>
OSP_INLINE inline std::size_t threshold_zero(float* grad, const float* mags,
                                             float t, std::size_t slots,
                                             std::size_t n) {
  const std::size_t initial = slots;
  each<L>(n, [&](auto l, std::size_t i) OSP_INLINE {
    zero_block<decltype(l)>(grad + i, mags + i, t, slots);
  });
  return initial - slots;
}

template <class L>
OSP_INLINE inline void mask_zero(float* grad, const std::uint8_t* keep,
                                 std::size_t n) {
  each<L>(n, [&](auto l, std::size_t i) OSP_INLINE {
    l.store(grad + i, l.keep(l.nonzero(keep + i), l.load(grad + i)));
  });
}

template <class L>
OSP_INLINE inline void relu(const float* x, float* y, std::size_t n) {
  each<L>(n, [&](auto l, std::size_t i) OSP_INLINE {
    const auto v = l.load(x + i);
    l.store(y + i, l.keep(l.gt(v, l.set1(0.0f)), v));
  });
}

template <class L>
OSP_INLINE inline void relu_grad(const float* x, const float* g, float* d,
                                 std::size_t n) {
  each<L>(n, [&](auto l, std::size_t i) OSP_INLINE {
    l.store(d + i, l.keep(l.nle(l.load(x + i), l.set1(0.0f)), l.load(g + i)));
  });
}

/// The table of tier L: the kernels above, plus the tier's own
/// nonzero_indices and bitmap codecs, where the instruction choice is the
/// point.
template <class L>
constexpr Kernels table(decltype(Kernels::nonzero_indices) nonzero_indices,
                        decltype(Kernels::pack_bits) pack_bits,
                        decltype(Kernels::unpack_bits) unpack_bits) {
  return {on<L, axpy<L>>, on<L, scale<L>>, on<L, add<L>>,
          on<L, add_copy2<L>>, on<L, sub<L>>, on<L, abs_prod_sum<L>>,
          on<L, l1<L>>, on<L, max_abs<L>>, on<L, quantize_dequantize<L>>,
          on<L, abs_into<L>>, on<L, count_gt<L>>, on<L, threshold_zero<L>>,
          nonzero_indices, on<L, mask_zero<L>>, pack_bits, unpack_bits,
          on<L, relu<L>>, on<L, relu_grad<L>>};
}

// ---------------------------------------------------------------------------
// Per-tier kernels: scalar forms, shared by the vector tiers' tails.
// ---------------------------------------------------------------------------

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
  if (i < n) {  // the zero-padded tail: its unused high bits come out 0
    std::uint8_t tail[8] = {};
    std::copy(bytes + i, bytes + n, tail);
    bits[i / 8] = pack8(tail);
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

constexpr Kernels kScalarKernels =
    table<Scalar>(nonzero_indices_scalar, pack_bits_scalar, unpack_bits_scalar);

#ifdef OSP_LANES_X86

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

OSP_AVX2 std::size_t nonzero_indices_avx2(
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

OSP_AVX2 void pack_bits_avx2(const std::uint8_t* bytes, std::uint8_t* bits,
                             std::size_t n) {
  const __m256i zero = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bytes + i));
    const auto mask = ~static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, zero)));
    std::memcpy(bits + i / 8, &mask, sizeof(mask));
  }
  if (i < n) pack_bits_scalar(bytes + i, bits + i / 8, n - i);
}

OSP_AVX2 void unpack_bits_avx2(const std::uint8_t* bits, std::uint8_t* bytes,
                               std::size_t n) {
  // Replicate each mask byte across its 8 output lanes, test the lane's
  // bit, normalize to 0/1.
  const __m256i ctrl = _mm256_setr_epi64x(0, kByteRep, 2 * kByteRep,
                                          3 * kByteRep);
  const __m256i bitsel = _mm256_set1_epi64x(static_cast<long long>(kBitSelect));
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

OSP_AVX512 std::size_t nonzero_indices_avx512(
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

OSP_AVX512 void pack_bits_avx512(
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

OSP_AVX512 void unpack_bits_avx512(
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

constexpr Kernels kAvx2Kernels =
    table<lanes::Avx2>(nonzero_indices_avx2, pack_bits_avx2, unpack_bits_avx2);
constexpr Kernels kAvx512Kernels = table<lanes::Avx512>(
    nonzero_indices_avx512, pack_bits_avx512, unpack_bits_avx512);

#endif  // OSP_LANES_X86

Tier detect_hardware_tier() {
#ifdef OSP_LANES_X86
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
  if (const char* env = std::getenv("OSP_SIMD_TIER")) {
    if (const auto parsed = parse_tier(env)) return clamp_to_hardware(*parsed);
  }
  return hardware_tier();
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
  [[maybe_unused]] const Tier tier = clamp_to_hardware(t);
#ifdef OSP_LANES_X86
  if (tier == Tier::kAvx512) return kAvx512Kernels;
  if (tier == Tier::kAvx2) return kAvx2Kernels;
#endif
  return kScalarKernels;
}

}  // namespace osp::util::simd
