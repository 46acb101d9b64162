// Flat float-vector kernels shared by the optimizer, the sync models, and
// the OSP correction math. These run on contiguous parameter/gradient
// blocks and are the hot path of aggregation, so they are kept branch-free
// and autovectorizer-friendly.
#pragma once

#include <cstddef>
#include <span>

namespace osp::util {

/// y += alpha * x. Sizes must match.
void axpy(float alpha, std::span<const float> x, std::span<float> y);

/// x *= alpha.
void scale(std::span<float> x, float alpha);

/// dst = src (sizes must match).
void copy(std::span<const float> src, std::span<float> dst);

/// Fill x with the given value.
void fill(std::span<float> x, float value);

/// Sum of |a_i * b_i| — the Parameter-Gradient Production kernel (Eq. 4).
[[nodiscard]] double abs_prod_sum(std::span<const float> a,
                                  std::span<const float> b);

/// Sum of absolute values.
[[nodiscard]] double l1_norm(std::span<const float> x);

/// dst = a - b (sizes must match).
void sub(std::span<const float> a, std::span<const float> b,
         std::span<float> dst);

/// dst = a + b (sizes must match).
void add(std::span<const float> a, std::span<const float> b,
         std::span<float> dst);

}  // namespace osp::util
