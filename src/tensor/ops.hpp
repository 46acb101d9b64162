// Tensor kernels: the three matmul orientations, elementwise ops, row
// softmax, and the im2col/col2im reference that the convolution kernels
// (conv.hpp) are tested against.
//
// Matmul comes in the three orientations backprop needs:
//   matmul:    C = A·B        (forward)
//   matmul_tn: C = Aᵀ·B       (weight gradient)
//   matmul_nt: C = A·Bᵀ       (input gradient)
// Each is one call of the panel GEMM (gemm.hpp) with its rows split across
// the global ThreadPool: matmul_tn reads A transposed through strides and
// matmul_nt packs Bᵀ into per-thread scratch. Every C element is one
// accumulator that starts at 0 and adds A[i,p]·B[p,j] in ascending p, so
// results are bit-identical to the straight triple loop in every
// util::simd tier and at every thread count. With `accumulate` the fresh
// product is added to C afterwards (C + Σ_p …), the float order of
// computing it into a temporary and adding that.
#pragma once

#include <span>

#include "tensor/tensor.hpp"

namespace osp::tensor {

/// A is [m,k], B is [k,n], C = A·B is [m,n] (C += A·B with `accumulate`).
void matmul(const Tensor& a, const Tensor& b, Tensor& c,
            bool accumulate = false);

/// A is [m,k], B is [m,n], C = Aᵀ·B is [k,n] (C += Aᵀ·B with `accumulate`).
void matmul_tn(const Tensor& a, const Tensor& b, Tensor& c,
               bool accumulate = false);

/// A is [m,k], B is [n,k], C = A·Bᵀ is [m,n] (C += A·Bᵀ with `accumulate`).
void matmul_nt(const Tensor& a, const Tensor& b, Tensor& c,
               bool accumulate = false);

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
