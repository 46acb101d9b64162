// Runtime SIMD dispatch for the gradient wire-path kernels and ReLU. The
// GEMM tiles (tensor/gemm.cpp) and the conv gathers (tensor/conv.cpp) pick
// their tier from active_tier() as well. All three are written once over
// the lane types of util/lanes.hpp.
//
// Three tiers — scalar, AVX2, AVX-512 — selected once at startup via
// __builtin_cpu_supports, overridable with the OSP_SIMD_TIER environment
// variable ("scalar" | "avx2" | "avx512", clamped to what the CPU
// supports) and force-able from tests via force_tier().
//
// Bit-identity contract (see DESIGN.md "SIMD dispatch tiers"): every tier
// of every kernel produces bit-identical results.
//  - Elementwise float kernels perform the identical per-element IEEE op
//    sequence (mul then add, never a fused float FMA) in every tier, so
//    they are also bit-identical to the seed scalar loops.
//  - Double-precision reductions over float inputs use one fixed-width
//    8-lane accumulation tree in every tier: lane j of a range owns
//    elements (base+j, base+j+8, ...), and the 8 lane totals are combined
//    serially in lane order. The AVX-512 tier fuses the per-lane
//    multiply-add: the product of two floats is exactly representable in
//    double, so fused and unfused rounding coincide.
//  - NaN follows one rule per kernel in every tier, stated below.
//  - Integer/bitmap kernels are exact by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace osp::util::simd {

/// Ordered by capability. 2 was the retired AVX2+FMA tier; the values are
/// kept because BENCH_micro_tensor.json records them.
enum class Tier : int { kScalar = 0, kAvx2 = 1, kAvx512 = 3 };

/// Human-readable tier name ("scalar", "avx2", "avx512").
[[nodiscard]] const char* tier_name(Tier t);

/// Parse an OSP_SIMD_TIER-style name; nullopt for unknown strings.
[[nodiscard]] std::optional<Tier> parse_tier(std::string_view name);

/// Best tier the running CPU supports (independent of env/forcing).
[[nodiscard]] Tier hardware_tier();

/// Tier currently used by the zero-argument kernels() accessor: the
/// hardware tier, clamped by OSP_SIMD_TIER if set, unless overridden by
/// force_tier().
[[nodiscard]] Tier active_tier();

/// Test/debug hook: pin the active tier (clamped to hardware_tier()).
/// Returns the tier actually installed. Not thread-safe against kernels
/// executing concurrently — call while the thread pool is idle.
Tier force_tier(Tier t);

/// Undo force_tier(): back to the env/hardware default.
void reset_tier();

/// Per-tier kernel table. All pointers are always valid; tiers the CPU
/// cannot execute fall back to the next lower supported tier so that
/// kernels(t) is safe to call for any t <= hardware_tier().
struct Kernels {
  // -- elementwise float (exact; identical op order in every tier) --
  void (*axpy)(float alpha, const float* x, float* y, std::size_t n);
  void (*scale)(float* x, float alpha, std::size_t n);
  void (*add)(const float* a, const float* b, float* dst, std::size_t n);
  /// d1[i] = d2[i] = a[i] + b[i] — the error-feedback fold (gradient +
  /// residual written to both the transmit buffer and the residual) in
  /// one pass. d2 may alias b.
  void (*add_copy2)(const float* a, const float* b, float* d1, float* d2,
                    std::size_t n);
  void (*sub)(const float* a, const float* b, float* dst, std::size_t n);

  // -- double reductions over float inputs (8-lane tree) --
  double (*abs_prod_sum)(const float* a, const float* b, std::size_t n);
  double (*l1)(const float* x, std::size_t n);

  // -- wire codecs --
  /// max_i |x[i]|, taken over the magnitudes' bit patterns as unsigned
  /// integers (0 for empty). On finite input that is the numeric max; a NaN
  /// anywhere gives a NaN, else an inf gives +inf. Exact in any order.
  float (*max_abs)(const float* x, std::size_t n);
  /// x[i] = round(clamp(x[i]*inv, -127, 127)) * scale with round-half-
  /// away-from-zero (std::round semantics, exactly, in every tier). Input
  /// must be finite; kv::quantize_dequantize_int8 checks it.
  void (*quantize_dequantize)(float* x, float scale, float inv,
                              std::size_t n);
  /// mags[i] = |x[i]|.
  void (*abs_into)(const float* x, float* mags, std::size_t n);
  /// Count of mags[i] > threshold (IEEE >, no abs applied here).
  std::size_t (*count_gt)(const float* mags, float threshold, std::size_t n);
  /// Top-k apply pass: keep grad[i] where mags[i] > threshold; elements
  /// equal to the threshold consume tie_slots in ascending index order;
  /// everything else is zeroed to +0. Kept elements keep their bits (−0
  /// included). Returns the number of tie slots consumed.
  std::size_t (*threshold_zero)(float* grad, const float* mags,
                                float threshold, std::size_t tie_slots,
                                std::size_t n);
  /// Writes the ascending indices i with values[i] != 0.0f (C++ semantics:
  /// −0 is skipped, NaN is kept) to out and returns their count. `out`
  /// must have room for n entries — lanes past the count are scratch —
  /// and n must fit in 32 bits.
  std::size_t (*nonzero_indices)(const float* values, std::uint32_t* out,
                                 std::size_t n);
  /// grad[i] = 0 where keep[i] == 0 (byte mask).
  void (*mask_zero)(float* grad, const std::uint8_t* keep, std::size_t n);

  // -- bitmap pack/unpack (GIB wire format: bit i%8 of byte i/8) --
  /// bytes[i] (0 = clear, nonzero = set) -> bits[(n+7)/8]; unused high
  /// bits of the final byte are written as zero.
  void (*pack_bits)(const std::uint8_t* bytes, std::uint8_t* bits,
                    std::size_t n);
  /// bits -> bytes[i] in {0, 1}.
  void (*unpack_bits)(const std::uint8_t* bits, std::uint8_t* bytes,
                      std::size_t n);

  // -- ReLU (selects only, so exact): branch-free forward and backward --
  /// y[i] = x[i] > 0 ? x[i] : +0; −0, NaN and −inf all give +0.
  void (*relu)(const float* x, float* y, std::size_t n);
  /// d[i] = x[i] <= 0 ? +0 : g[i]; a NaN x passes g[i] through.
  void (*relu_grad)(const float* x, const float* g, float* d, std::size_t n);
};

/// Kernel table for an explicit tier (cross-tier bit-identity tests).
[[nodiscard]] const Kernels& kernels(Tier t);

/// Kernel table for the active tier.
[[nodiscard]] inline const Kernels& kernels() { return kernels(active_tier()); }

/// RAII forced-tier scope for tests.
class ScopedTier {
 public:
  explicit ScopedTier(Tier t) : prev_(active_tier()) { force_tier(t); }
  ~ScopedTier() { force_tier(prev_); }
  ScopedTier(const ScopedTier&) = delete;
  ScopedTier& operator=(const ScopedTier&) = delete;

 private:
  Tier prev_;
};

}  // namespace osp::util::simd
