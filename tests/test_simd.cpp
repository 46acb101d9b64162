// Cross-tier bit-identity tests for the SIMD dispatch layer (DESIGN.md
// "SIMD dispatch tiers"): every kernel must produce bit-identical results
// in every tier the CPU supports, the vector codecs must match the seed
// scalar semantics exactly (std::round half-away-from-zero, per-bit GIB
// format, sequential tie budget), and the forced-tier hooks must clamp to
// hardware.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <span>
#include <vector>

#include "core/gib.hpp"
#include "kv/compress.hpp"
#include "sync/kv_bsp.hpp"
#include "util/rng.hpp"
#include "util/serde.hpp"
#include "util/simd.hpp"

namespace {

using osp::util::Rng;
using osp::util::simd::Kernels;
using osp::util::simd::Tier;
namespace simd = osp::util::simd;

/// Tiers to cross-check: scalar plus everything the CPU supports.
std::vector<Tier> testable_tiers() {
  std::vector<Tier> tiers{Tier::kScalar};
  for (Tier t : {Tier::kAvx2, Tier::kAvx512}) {
    if (t <= simd::hardware_tier()) tiers.push_back(t);
  }
  return tiers;
}

// Sizes that cover empty input, sub-width tails, exact vector widths, and
// the width+1 straddle for 8/16/32/64-wide inner loops.
const std::size_t kSizes[] = {0, 1, 3, 7, 8, 9, 15, 16, 17,
                              31, 32, 33, 63, 64, 65, 127, 128, 129, 1000};

/// Bitwise equality. memcmp may not be passed the null data() of an empty
/// vector, even with a zero length.
bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// Bitwise equality, except that any NaN matches any NaN: for arithmetic
/// results, whose NaN payload IEEE leaves unspecified.
bool same_bits_up_to_nan(const std::vector<float>& a,
                         const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) return false;
  }
  return true;
}

bool same_bits_up_to_nan(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) ||
         std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::vector<float> random_floats(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal());
  return v;
}

/// Draws from ±0, subnormals, exact ±k.5 halves (also after the ×4 of
/// QuantizeDequantize), a few normal values and, unless `finite`, ±inf and
/// NaN of both signs.
std::vector<float> special_floats(std::size_t n, std::uint64_t seed,
                                  bool finite = false) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float tiny = std::numeric_limits<float>::denorm_min();
  const float specials[] = {0.0f,     -0.0f,  tiny,   -tiny,   1e-39f,
                            -1e-39f,  0.5f,   -0.5f,  2.5f,    -126.5f,
                            0.125f,   -0.375f, 0.625f, -31.625f, 1.0f,
                            -0.75f,   inf,    -inf,   nan,     -nan};
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) {
    x = specials[rng.uniform_u64(std::size(specials) - (finite ? 4 : 0))];
  }
  return v;
}

TEST(SimdDispatch, TierNamesRoundTrip) {
  for (Tier t : {Tier::kScalar, Tier::kAvx2, Tier::kAvx512}) {
    const auto parsed = simd::parse_tier(simd::tier_name(t));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, t);
  }
  EXPECT_FALSE(simd::parse_tier("").has_value());
  EXPECT_FALSE(simd::parse_tier("avx9000").has_value());
}

TEST(SimdDispatch, ForceTierClampsToHardware) {
  const Tier hw = simd::hardware_tier();
  {
    simd::ScopedTier forced(Tier::kScalar);
    EXPECT_EQ(simd::active_tier(), Tier::kScalar);
  }
  EXPECT_EQ(simd::force_tier(Tier::kAvx512), std::min(Tier::kAvx512, hw));
  simd::reset_tier();
  EXPECT_LE(simd::active_tier(), hw);
}

TEST(SimdCrossTier, ElementwiseKernels) {
  const Kernels& ref = simd::kernels(Tier::kScalar);
  for (std::size_t n : kSizes) {
    for (bool special : {false, true}) {
      const std::vector<float> a =
          special ? special_floats(n, 100 + n) : random_floats(n, 100 + n);
      const std::vector<float> b =
          special ? special_floats(n, 200 + n) : random_floats(n, 200 + n);
      std::vector<float> want_axpy = b, want_scale = a;
      std::vector<float> want_add(n), want_sub(n), want_d1(n), want_d2 = b;
      ref.axpy(0.37f, a.data(), want_axpy.data(), n);
      ref.scale(want_scale.data(), -1.75f, n);
      ref.add(a.data(), b.data(), want_add.data(), n);
      ref.sub(a.data(), b.data(), want_sub.data(), n);
      ref.add_copy2(a.data(), want_d2.data(), want_d1.data(), want_d2.data(),
                    n);
      for (Tier t : testable_tiers()) {
        const Kernels& k = simd::kernels(t);
        std::vector<float> got_axpy = b, got_scale = a;
        std::vector<float> got_add(n), got_sub(n), got_d1(n), got_d2 = b;
        k.axpy(0.37f, a.data(), got_axpy.data(), n);
        k.scale(got_scale.data(), -1.75f, n);
        k.add(a.data(), b.data(), got_add.data(), n);
        k.sub(a.data(), b.data(), got_sub.data(), n);
        // add_copy2 with d2 aliasing b, as the EF fold uses it.
        k.add_copy2(a.data(), got_d2.data(), got_d1.data(), got_d2.data(), n);
        const char* tn = simd::tier_name(t);
        EXPECT_TRUE(same_bits_up_to_nan(got_axpy, want_axpy))
            << tn << " axpy n=" << n;
        EXPECT_TRUE(same_bits_up_to_nan(got_scale, want_scale))
            << tn << " scale n=" << n;
        EXPECT_TRUE(same_bits_up_to_nan(got_add, want_add))
            << tn << " add n=" << n;
        EXPECT_TRUE(same_bits_up_to_nan(got_sub, want_sub))
            << tn << " sub n=" << n;
        EXPECT_TRUE(same_bits_up_to_nan(got_d1, want_d1))
            << tn << " add_copy2 d1";
        EXPECT_TRUE(same_bits_up_to_nan(got_d2, want_d2))
            << tn << " add_copy2 d2";
      }
    }
  }
}

/// max_abs's rule (simd.hpp): the max of the magnitudes' bit patterns, so
/// NaN > +inf > every finite value.
float max_abs_rule(const std::vector<float>& x) {
  std::uint32_t m = 0;
  for (float v : x) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    m = std::max(m, bits & 0x7fffffffu);
  }
  float out;
  std::memcpy(&out, &m, sizeof(out));
  return out;
}

TEST(SimdCrossTier, Reductions) {
  const Kernels& ref = simd::kernels(Tier::kScalar);
  for (std::size_t n : kSizes) {
    for (bool special : {false, true}) {
      const std::vector<float> a =
          special ? special_floats(n, 300 + n) : random_floats(n, 300 + n);
      const std::vector<float> b =
          special ? special_floats(n, 400 + n) : random_floats(n, 400 + n);
      const double want_aps = ref.abs_prod_sum(a.data(), b.data(), n);
      const double want_l1 = ref.l1(a.data(), n);
      const std::vector<float> want_max = {max_abs_rule(a)};
      for (Tier t : testable_tiers()) {
        const Kernels& k = simd::kernels(t);
        const char* tn = simd::tier_name(t);
        // Bit-identical, not just close: compare the exact doubles.
        EXPECT_TRUE(same_bits_up_to_nan(k.abs_prod_sum(a.data(), b.data(), n),
                                        want_aps))
            << tn << " abs_prod_sum n=" << n;
        EXPECT_TRUE(same_bits_up_to_nan(k.l1(a.data(), n), want_l1))
            << tn << " l1 n=" << n;
        // A selection, not arithmetic: even a NaN result has exact bits.
        EXPECT_TRUE(same_bits({k.max_abs(a.data(), n)}, want_max))
            << tn << " max_abs n=" << n;
      }
    }
  }
  // 100, NaN and 1 in the same lane of three consecutive 16-lane blocks:
  // a float max that drops NaN would pick 100 or 1 depending on the tier.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> x(48, 0.0f);
  x[5] = 100.0f;
  x[21] = nan;
  x[37] = 1.0f;
  for (Tier t : testable_tiers()) {
    EXPECT_TRUE(std::isnan(simd::kernels(t).max_abs(x.data(), x.size())))
        << simd::tier_name(t);
  }
  x[21] = -std::numeric_limits<float>::infinity();
  for (Tier t : testable_tiers()) {
    EXPECT_EQ(simd::kernels(t).max_abs(x.data(), x.size()),
              std::numeric_limits<float>::infinity())
        << simd::tier_name(t);
  }
}

TEST(SimdCrossTier, QuantizeDequantize) {
  for (std::size_t n : kSizes) {
    std::vector<float> base = random_floats(n, 500 + n);
    // Plant exact halfway values: q*inv lands on .5 boundaries where
    // round-half-even and round-half-away disagree.
    const float scale = 0.25f, inv = 4.0f;
    for (std::size_t i = 0; i + 4 < n; i += 5) {
      base[i] = 0.125f;       // 0.5 after inv -> must round to 1, not 0
      base[i + 1] = -0.125f;  // -0.5 -> -1
      base[i + 2] = 0.375f;   // 1.5 -> 2 (both rules agree)
      base[i + 3] = 0.625f;   // 2.5 -> 3, not 2
      base[i + 4] = -0.625f;  // -2.5 -> -3
    }
    // Reference: the seed scalar loop with std::round.
    std::vector<float> want = base;
    for (float& v : want) {
      v = std::round(std::clamp(v * inv, -127.0f, 127.0f)) * scale;
    }
    // Finite special values: ±0, subnormals, halves and values past the
    // clamp. Non-finite input is the caller's to reject.
    const std::vector<float> special = special_floats(n, 550 + n, true);
    std::vector<float> want_special = special;
    for (float& v : want_special) {
      v = std::round(std::clamp(v * inv, -127.0f, 127.0f)) * scale;
    }
    for (Tier t : testable_tiers()) {
      std::vector<float> got = base;
      simd::kernels(t).quantize_dequantize(got.data(), scale, inv, n);
      EXPECT_TRUE(same_bits(got, want))
          << simd::tier_name(t) << " n=" << n;
      got = special;
      simd::kernels(t).quantize_dequantize(got.data(), scale, inv, n);
      EXPECT_TRUE(same_bits(got, want_special))
          << simd::tier_name(t) << " special n=" << n;
    }
  }
}

/// Tie budgets around the vector blocks of `mags` at `threshold`: none,
/// one, two, exactly the ties of the first 8- and 16-lane blocks, one past
/// them (running out inside the next block), half and all of the ties, and
/// more than all of them.
std::vector<std::size_t> tie_budgets(const std::vector<float>& mags,
                                     float threshold) {
  std::size_t first8 = 0;
  std::size_t first16 = 0;
  std::size_t total = 0;
  for (std::size_t i = 0; i < mags.size(); ++i) {
    if (mags[i] != threshold) continue;
    first8 += i < 8 ? 1 : 0;
    first16 += i < 16 ? 1 : 0;
    ++total;
  }
  return {0,      1,           2,         first8, first8 + 1,
          first16, first16 + 1, total / 2, total,  total + 5};
}

/// threshold_zero in every tier against the scalar tier, for each budget.
void check_threshold_zero(const std::vector<float>& grad, float threshold,
                          const char* what) {
  const std::size_t n = grad.size();
  std::vector<float> mags(n);
  const Kernels& ref = simd::kernels(Tier::kScalar);
  ref.abs_into(grad.data(), mags.data(), n);
  for (std::size_t budget : tie_budgets(mags, threshold)) {
    std::vector<float> want = grad;
    const std::size_t want_ties = ref.threshold_zero(
        want.data(), mags.data(), threshold, budget, n);
    for (Tier t : testable_tiers()) {
      std::vector<float> got = grad;
      EXPECT_EQ(simd::kernels(t).threshold_zero(got.data(), mags.data(),
                                                threshold, budget, n),
                want_ties)
          << simd::tier_name(t) << ' ' << what << " ties n=" << n
          << " budget=" << budget;
      EXPECT_TRUE(same_bits(got, want))
          << simd::tier_name(t) << ' ' << what << " grad n=" << n
          << " budget=" << budget;
    }
  }
}

TEST(SimdCrossTier, TopKScanKernels) {
  for (std::size_t n : kSizes) {
    if (n == 0) continue;
    std::vector<float> grad = random_floats(n, 600 + n);
    // Force threshold ties so the sequential tie budget is exercised.
    const float threshold = 0.5f;
    for (std::size_t i = 0; i < n; i += 3) grad[i] = i % 2 == 0 ? 0.5f : -0.5f;
    const Kernels& ref = simd::kernels(Tier::kScalar);
    for (const std::vector<float>& x : {grad, special_floats(n, 625 + n)}) {
      std::vector<float> mags(n);
      ref.abs_into(x.data(), mags.data(), n);
      const std::size_t want_gt = ref.count_gt(mags.data(), threshold, n);
      for (Tier t : testable_tiers()) {
        const Kernels& k = simd::kernels(t);
        std::vector<float> got_mags(n);
        k.abs_into(x.data(), got_mags.data(), n);
        EXPECT_TRUE(same_bits(got_mags, mags))
            << simd::tier_name(t) << " abs_into n=" << n;
        EXPECT_EQ(k.count_gt(got_mags.data(), threshold, n), want_gt)
            << simd::tier_name(t) << " count_gt n=" << n;
      }
    }
    check_threshold_zero(grad, threshold, "ties at 0.5");

    // Threshold 0 over ±0: the GIB-zeroed Top-K case. A kept tie keeps
    // its sign bit; a zeroed one becomes +0.
    std::vector<float> zeros = random_floats(n, 650 + n);
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 4 != 1) zeros[i] = i % 3 == 0 ? -0.0f : 0.0f;
    }
    check_threshold_zero(zeros, 0.0f, "ties at 0");
  }
}

TEST(SimdCrossTier, NonzeroIndices) {
  const float specials[] = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::infinity(),
                            1.0f};
  for (std::size_t n : kSizes) {
    Rng rng(950 + n);
    std::vector<float> values(n);
    for (float& v : values) v = specials[rng.uniform_u64(std::size(specials))];
    std::vector<std::uint32_t> want;
    for (std::size_t i = 0; i < n; ++i) {
      if (values[i] != 0.0f) want.push_back(static_cast<std::uint32_t>(i));
    }
    for (Tier t : testable_tiers()) {
      std::vector<std::uint32_t> got(n);
      got.resize(simd::kernels(t).nonzero_indices(values.data(), got.data(),
                                                  n));
      EXPECT_EQ(got, want) << simd::tier_name(t) << " n=" << n;
    }
  }
}

TEST(SimdCrossTier, MaskZero) {
  for (std::size_t n : kSizes) {
    Rng rng(800 + n);
    std::vector<std::uint8_t> mask(n);
    for (auto& m : mask) m = rng.bernoulli(0.5) ? 1 : 0;
    for (const std::vector<float>& base :
         {random_floats(n, 700 + n), special_floats(n, 750 + n)}) {
      std::vector<float> want = base;
      simd::kernels(Tier::kScalar).mask_zero(want.data(), mask.data(), n);
      for (Tier t : testable_tiers()) {
        std::vector<float> got = base;
        simd::kernels(t).mask_zero(got.data(), mask.data(), n);
        EXPECT_TRUE(same_bits(got, want))
            << simd::tier_name(t) << " n=" << n;
      }
    }
  }
}

TEST(SimdCrossTier, PackUnpackBits) {
  for (std::size_t n : kSizes) {
    Rng rng(900 + n);
    std::vector<std::uint8_t> bytes(n);
    for (auto& b : bytes) b = rng.bernoulli(0.5) ? 1 : 0;
    const std::size_t packed = (n + 7) / 8;
    // Reference: the seed per-bit loops.
    std::vector<std::uint8_t> want_bits(packed, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (bytes[i] != 0) {
        want_bits[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
      }
    }
    std::vector<std::uint8_t> want_bytes(n);
    for (std::size_t i = 0; i < n; ++i) {
      want_bytes[i] =
          static_cast<std::uint8_t>((want_bits[i / 8] >> (i % 8)) & 1u);
    }
    for (Tier t : testable_tiers()) {
      const Kernels& k = simd::kernels(t);
      std::vector<std::uint8_t> got_bits(packed, 0xee);
      k.pack_bits(bytes.data(), got_bits.data(), n);
      EXPECT_EQ(got_bits, want_bits) << simd::tier_name(t) << " pack n=" << n;
      std::vector<std::uint8_t> got_bytes(n, 0xee);
      k.unpack_bits(want_bits.data(), got_bytes.data(), n);
      EXPECT_EQ(got_bytes, want_bytes)
          << simd::tier_name(t) << " unpack n=" << n;
    }
  }
}

TEST(SimdCrossTier, PackNormalizesNonZeroBytes) {
  // pack_bits must treat any nonzero byte as a set bit, like the seed's
  // `bits_[i] != 0` test — not just the value 1.
  const std::size_t n = 70;
  std::vector<std::uint8_t> bytes(n, 0);
  for (std::size_t i = 0; i < n; i += 3) {
    bytes[i] = static_cast<std::uint8_t>(1 + (i * 37) % 255);
  }
  std::vector<std::uint8_t> want((n + 7) / 8, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (bytes[i] != 0) want[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
  }
  for (Tier t : testable_tiers()) {
    std::vector<std::uint8_t> got((n + 7) / 8, 0);
    simd::kernels(t).pack_bits(bytes.data(), got.data(), n);
    EXPECT_EQ(got, want) << simd::tier_name(t);
  }
}

TEST(GibRoundTrip, OddBitCountsAcrossTiers) {
  for (std::size_t n : {1u, 7u, 8u, 9u, 63u, 64u, 65u, 200u}) {
    Rng rng(42 + n);
    auto gib = osp::core::Gib::all_unimportant(n);
    for (std::size_t i = 0; i < n; ++i) {
      gib.set_important(i, rng.bernoulli(0.4));
    }
    const std::vector<std::uint8_t> wire = gib.serialize();
    EXPECT_EQ(wire.size(), gib.wire_bytes());
    for (Tier t : testable_tiers()) {
      simd::ScopedTier forced(t);
      // Serialize in tier t, deserialize in every tier: the wire format
      // is tier-independent.
      EXPECT_EQ(gib.serialize(), wire) << simd::tier_name(t) << " n=" << n;
      EXPECT_EQ(osp::core::Gib::deserialize(wire), gib)
          << simd::tier_name(t) << " n=" << n;
    }
  }
}

TEST(SparsifyCrossTier, TopKAndRandomKMatchScalar) {
  using osp::kv::CompressionMode;
  for (std::size_t n : {9u, 64u, 257u, 1000u}) {
    for (CompressionMode mode :
         {CompressionMode::TopK, CompressionMode::RandomK}) {
      std::vector<float> base = random_floats(n, 77 + n);
      // Duplicate magnitudes force threshold ties in TopK.
      if (n > 4) {
        base[1] = 0.75f;
        base[3] = -0.75f;
        base[4] = 0.75f;
      }
      std::vector<float> want = base;
      std::size_t want_kept = 0;
      {
        simd::ScopedTier forced(Tier::kScalar);
        Rng rng(5);
        want_kept = osp::kv::sparsify(want, mode, 0.25, rng);
      }
      for (Tier t : testable_tiers()) {
        simd::ScopedTier forced(t);
        std::vector<float> got = base;
        Rng rng(5);
        osp::kv::SparsifyScratch scratch;
        const std::size_t kept = osp::kv::sparsify(
            std::span<float>(got), mode, 0.25, rng, scratch);
        EXPECT_EQ(kept, want_kept) << simd::tier_name(t) << " n=" << n;
        EXPECT_TRUE(same_bits(got, want))
            << simd::tier_name(t) << " n=" << n;
      }
    }
  }
}

TEST(SerdeF32Into, ReadsIntoPresizedSpanAndValidatesLength) {
  const std::vector<float> vals = random_floats(37, 9);
  osp::util::serde::Writer w;
  w.f32_vec(vals);
  {
    osp::util::serde::Reader r(w.data());
    std::vector<float> out(vals.size());
    r.f32_into(out);
    EXPECT_TRUE(same_bits(out, vals));
    EXPECT_TRUE(r.done());
  }
  {
    // Wrong destination size must throw, not read out of step.
    osp::util::serde::Reader r(w.data());
    std::vector<float> out(vals.size() + 1);
    EXPECT_THROW(r.f32_into(out), osp::util::CheckError);
  }
  {
    // f32_into round-trips the same wire bytes f32_vec produces.
    osp::util::serde::Reader r(w.data());
    EXPECT_EQ(r.f32_vec(), vals);
  }
}

TEST(CompressedName, ExactKeepPercentages) {
  using osp::kv::CompressionMode;
  using osp::sync::compressed_bsp;
  using osp::sync::KvBspSync;
  EXPECT_EQ(KvBspSync(compressed_bsp(CompressionMode::TopK, 0.125)).name(),
            "TopK(12.5%)");
  EXPECT_EQ(KvBspSync(compressed_bsp(CompressionMode::TopK, 0.01)).name(),
            "TopK(1%)");
  EXPECT_EQ(
      KvBspSync(compressed_bsp(CompressionMode::RandomK, 0.25, 1, true)).name(),
      "RandomK(25%)+EF");
}

}  // namespace
