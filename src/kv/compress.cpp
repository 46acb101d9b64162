#include "kv/compress.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "util/check.hpp"
#include "util/simd.hpp"

namespace osp::kv {

std::size_t sparsify(std::span<float> grad, CompressionMode mode,
                     double keep_fraction, util::Rng& rng,
                     SparsifyScratch& scratch) {
  OSP_CHECK(keep_fraction > 0.0 && keep_fraction <= 1.0,
            "keep fraction must be in (0, 1]");
  const std::size_t n = grad.size();
  const auto keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(keep_fraction *
                                               static_cast<double>(n))));
  OSP_CHECK(n <= std::numeric_limits<std::uint32_t>::max(),
            "gradient block too large for 32-bit indices");
  if (keep >= n) return n;
  const util::simd::Kernels& k = util::simd::kernels();
  scratch.idx.resize(n);
  if (mode == CompressionMode::TopK) {
    scratch.mags.resize(n);
    float* mags = scratch.mags.data();
    std::uint32_t* idx = scratch.idx.data();
    k.abs_into(grad.data(), mags, n);
    // fabs maps every value but NaN into [+0, +inf], so only NaN fails
    // `> -1`. A NaN would land at an unspecified rank of the selection.
    OSP_CHECK(k.count_gt(mags, -1.0f, n) == n,
              "Top-K sparsify input contains NaN");
    // Threshold at the keep-th largest magnitude. Every zero has magnitude
    // +0, so with fewer than `keep` positive magnitudes it is +0; otherwise
    // it lies among the positive ones, and selecting over just those gives
    // the full-array selection's value (equal positive floats share bits).
    // Without NaN, the nonzero magnitudes are exactly the positive ones.
    const std::size_t positive = k.nonzero_indices(mags, idx, n);
    float threshold = 0.0f;
    std::size_t kept_above = positive;
    if (positive >= keep) {
      scratch.sel.resize(positive);
      float* sel = scratch.sel.data();
      if (positive == n) {
        std::copy(mags, mags + n, sel);  // dense: nothing to compact
      } else {
        for (std::size_t j = 0; j < positive; ++j) sel[j] = mags[idx[j]];
      }
      std::nth_element(sel, sel + (keep - 1), sel + positive,
                       std::greater<float>());
      threshold = sel[keep - 1];
      kept_above = k.count_gt(mags, threshold, n);
    }
    // Keep strictly-above first; elements equal to the threshold fill
    // remaining slots in index order (deterministic tie handling).
    const std::size_t ties_kept = k.threshold_zero(
        grad.data(), mags, threshold, keep - kept_above, n);
    return kept_above + ties_kept;
  }
  // RandomK: reservoir-free selection via shuffled index prefix.
  for (std::size_t i = 0; i < n; ++i) {
    scratch.idx[i] = static_cast<std::uint32_t>(i);
  }
  rng.shuffle(scratch.idx);
  scratch.mask.assign(n, 0);
  for (std::size_t i = 0; i < keep; ++i) scratch.mask[scratch.idx[i]] = 1;
  k.mask_zero(grad.data(), scratch.mask.data(), n);
  return keep;
}

std::size_t sparsify(std::vector<float>& grad, CompressionMode mode,
                     double keep_fraction, util::Rng& rng) {
  SparsifyScratch scratch;
  return sparsify(std::span<float>(grad), mode, keep_fraction, rng, scratch);
}

float quantize_dequantize_int8(std::span<float> grad) {
  const util::simd::Kernels& k = util::simd::kernels();
  const float max_abs = k.max_abs(grad.data(), grad.size());
  // max_abs ranks NaN above inf, so one test covers every non-finite value.
  OSP_CHECK(std::isfinite(max_abs), "Q8 quantize input is not finite");
  if (max_abs == 0.0f) return 0.0f;
  const float scale = max_abs / 127.0f;
  const float inv = 1.0f / scale;
  k.quantize_dequantize(grad.data(), scale, inv, grad.size());
  return scale;
}

}  // namespace osp::kv
