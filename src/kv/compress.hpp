// Value-compression primitives shared by the message filters and the
// gradient-compression sync baselines (§2.2.2, §7).
//
// These are the raw kernels — sparsification and symmetric int8
// quantization — that the composable filter stages (kv/filter.hpp) wrap.
// They live below src/sync so the KV pipeline and every caller share one
// implementation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace osp::kv {

enum class CompressionMode { TopK, RandomK };

/// Reusable working memory for sparsify(). Sized on first use and reused
/// across rounds, so the per-round selection does no heap allocation after
/// warm-up.
struct SparsifyScratch {
  std::vector<float> mags;        // |grad[i]|, kept in element order
  std::vector<float> sel;         // positive magnitudes, nth_element'd
  std::vector<std::uint32_t> idx; // index scratch: positive / kept / shuffled
  std::vector<std::uint8_t> mask; // RandomK keep byte-mask
};

/// Sparsify `grad` in place, keeping `keep_fraction` of its elements
/// (highest |g| for TopK, uniform for RandomK); zeroes the rest. Returns
/// the number of kept elements. TopK rejects a NaN element with a
/// CheckError whenever it has to select.
std::size_t sparsify(std::span<float> grad, CompressionMode mode,
                     double keep_fraction, util::Rng& rng,
                     SparsifyScratch& scratch);

/// Convenience overload with throwaway scratch (tests, one-shot callers).
std::size_t sparsify(std::vector<float>& grad, CompressionMode mode,
                     double keep_fraction, util::Rng& rng);

/// Symmetric per-tensor int8 quantization: q = round(clamp(g/s)) with
/// s = max|g|/127. Returns the scale; `grad` is replaced by the
/// dequantized values (the receiver's view), so quantization noise enters
/// the training numerics exactly as it would on a real system. Throws
/// CheckError if `grad` holds a NaN or an inf.
float quantize_dequantize_int8(std::span<float> grad);

}  // namespace osp::kv
