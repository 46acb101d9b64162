// Tensor kernels: cache-blocked register-tiled matmul, transpose variants,
// elementwise ops, row softmax, and the im2col/col2im reference that the
// convolution kernels (conv.hpp) are tested against.
//
// Matmul comes in the three orientations backprop needs:
//   matmul:    C = A·B        (forward)
//   matmul_tn: C = Aᵀ·B       (weight gradient; _acc accumulates into C)
//   matmul_nt: C = A·Bᵀ       (input gradient)
// All orientations route through one shared packed GEMM kernel
// (MC/KC/NC blocking, kMR×kNR register tile) parallelized over output-row
// strips via the global ThreadPool. Each C element is accumulated by a
// single accumulator in ascending-k order, so results are bit-identical
// across thread counts and blocking parameters.
#pragma once

#include <span>

#include "tensor/tensor.hpp"

namespace osp::tensor {

/// C[m,n] = A[m,k] · B[k,n].
void matmul(const Tensor& a, const Tensor& b, Tensor& c);

/// C[k_a_cols,n] = Aᵀ[k,m]ᵀ… precisely: A is [m,k], B is [m,n], C = Aᵀ·B is [k,n].
void matmul_tn(const Tensor& a, const Tensor& b, Tensor& c);

/// A is [m,k], B is [n,k], C = A·Bᵀ is [m,n].
void matmul_nt(const Tensor& a, const Tensor& b, Tensor& c);

/// C += Aᵀ·B (accumulating matmul_tn; the GEMM adds straight into the
/// destination instead of materializing a temporary).
void matmul_tn_acc(const Tensor& a, const Tensor& b, Tensor& c);

/// out[r] = in[r] + bias for every row of a rank-2 tensor (in place).
void add_bias_rows(Tensor& x, std::span<const float> bias);

/// Accumulate the per-column sum of a rank-2 tensor into `out`.
///
/// CONTRACT: this ACCUMULATES (`out[c] += Σ_r x[r,c]`); it never zeroes
/// `out` first. Callers that want a plain sum must zero-fill beforehand.
/// The bias-gradient paths (`nn/linear.cpp`, `nn/conv2d.cpp`) rely on the
/// accumulate behavior to add into persistent gradient buffers that the
/// optimizer zeroes between steps. Rows are added in ascending order per
/// column regardless of thread count.
void sum_rows(const Tensor& x, std::span<float> out);

/// Row-wise softmax of a rank-2 tensor, written into `out` (same shape).
/// Numerically stabilized by max subtraction.
void softmax_rows(const Tensor& x, Tensor& out);

/// B[n,m] = Aᵀ for rank-2 A[m,n].
void transpose(const Tensor& a, Tensor& b);

/// Parameters describing a conv/pool window.
struct Conv2dGeom {
  std::size_t in_channels = 0;
  std::size_t in_h = 0;
  std::size_t in_w = 0;
  std::size_t kernel = 0;   // square kernel
  std::size_t stride = 1;
  std::size_t pad = 0;

  [[nodiscard]] std::size_t out_h() const {
    return (in_h + 2 * pad - kernel) / stride + 1;
  }
  [[nodiscard]] std::size_t out_w() const {
    return (in_w + 2 * pad - kernel) / stride + 1;
  }
  /// Rows of the im2col matrix per image: out_h*out_w.
  [[nodiscard]] std::size_t patches() const { return out_h() * out_w(); }
  /// Columns of the im2col matrix: C*k*k.
  [[nodiscard]] std::size_t patch_len() const {
    return in_channels * kernel * kernel;
  }
};

/// Expand one image (C,H,W flat span) into the im2col matrix
/// [patches, patch_len]. Out-of-bounds (padding) reads as 0. Reference
/// only: Conv2d runs the implicit-GEMM kernels in conv.hpp, which tests
/// check bit for bit against this im2col/col2im formulation.
void im2col(std::span<const float> image, const Conv2dGeom& g, Tensor& cols);

/// Scatter-add the column matrix back into an image gradient (+=), patch
/// rows in ascending order. Reference only, like im2col.
void col2im(const Tensor& cols, const Conv2dGeom& g, std::span<float> image);

}  // namespace osp::tensor
