// Implicit-GEMM 2-D convolution kernels over NCHW tensors.
//
// Each sample b is its own small GEMM. With X̂_b the [C·k·k, oh·ow] patch
// matrix of sample b (row q = (ch, ky, kx), column p = (oy, ox)):
//
//   forward:  out_b  = W · X̂_b + bias          lanes over patches, NCHW out
//   dX:       D_b    = Wᵀ · G_b                gathered into dx_b by rows
//   dW:       wgrad += G_b · X̂_bᵀ             fresh per sample, batch order
//   db:       bgrad[oc] += G[b, oc, p]         ascending (b, p) per channel
//
// No patch matrix is kept for the batch, and no padded copy of a sample is
// made. For stride 1 and pad (k−1)/2, each row of X̂_b is the sample's plane
// shifted by one tap offset: forward packs it with full-width register
// loads, dX reads D_b back the same way, and dW packs X̂_bᵀ from the same
// loads, transposed in registers a square of columns × patches at a time.
// Other geometries pack X̂_b as ow-wide spans and X̂_bᵀ as k-wide spans read
// straight from the sample's NCHW rows, one sample at a time. A lane mask
// zeroes the lanes that fall in the padding. dX reads D_b in
// col2im's order: each register of dx is one accumulator that starts at
// +0, adds its taps (ky descending, then kx descending, which is
// ascending (oy, ox) for every pixel) and is stored once.
//
// Each per-sample product is one call of the panel GEMM (gemm.hpp), so
// every output element is one accumulator that starts at 0 and adds its
// products in ascending reduction order (q for forward, oc for dX, p for
// dW), mul-then-add, never fused; the bias is added after the last
// product. dX pixels receive their terms in ascending (oy, ox)
// order and dW adds each sample's product in batch order. That is the
// float grouping of the im2col + GEMM + col2im pipeline these kernels
// replaced (im2col/col2im in ops.hpp remain as the tests' reference), so
// results are bit-identical to it at any thread count and in every
// util::simd tier. See DESIGN.md, "Convolution kernels".
#pragma once

#include <cstddef>

#include "tensor/ops.hpp"

namespace osp::tensor {

/// out[batch, out_c, oh, ow] = conv(x[batch, C, H, W], weight) + bias, with
/// `weight` [out_c, C·k·k] row-major and `bias` [out_c].
void conv2d_forward(const float* x, const float* weight, const float* bias,
                    const Conv2dGeom& g, std::size_t out_c, std::size_t batch,
                    float* out);

/// dx[batch, C, H, W] = input gradient of grad_out[batch, out_c, oh, ow].
void conv2d_backward_data(const float* grad_out, const float* weight,
                          const Conv2dGeom& g, std::size_t out_c,
                          std::size_t batch, float* dx);

/// wgrad[out_c, C·k·k] += G_b · X̂_bᵀ for b = 0, 1, … in order, each
/// product formed from a fresh accumulator, and
/// bgrad[oc] += grad_out[b, oc, p] in ascending (b, p) order.
void conv2d_backward_weight(const float* grad_out, const float* x,
                            const Conv2dGeom& g, std::size_t out_c,
                            std::size_t batch, float* wgrad, float* bgrad);

/// out[planes, oh, ow] = the max of each k×k window of x[planes, h, w]
/// (g.in_h × g.in_w planes, stride g.stride, g.pad 0), and argmax[i] = the
/// flat index into x of the element out[i] came from: the first in (ky, kx)
/// order that is greater than every element before it, starting from −inf.
/// Ties thus go to the earliest tap and NaN is never picked; a window with
/// nothing above −inf reports −inf from its first element.
void max_pool2d_forward(const float* x, const Conv2dGeom& g,
                        std::size_t planes, float* out, std::size_t* argmax);

}  // namespace osp::tensor
