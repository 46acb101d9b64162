// The tensor kernels of one source tree behind a C interface, built as a
// MODULE library for kernel_ab to dlopen. Every symbol but these four is
// hidden, so two modules built from different trees load side by side in
// one process, each calling its own kernels. Arguments are plain scalars
// and pointers, so the interface does not depend on either tree's structs.
#include <cstddef>

#include "tensor/conv.hpp"
#include "tensor/gemm.hpp"

#define OSP_AB_EXPORT extern "C" __attribute__((visibility("default")))

namespace {

osp::tensor::Conv2dGeom geom(const std::size_t* g) {
  return {g[0], g[1], g[2], g[3], g[4], g[5]};
}

}  // namespace

/// tensor::gemm; epi 0/1/2 = store / add bias / accumulate.
OSP_AB_EXPORT void osp_ab_gemm(std::size_t m, std::size_t n, std::size_t k,
                               const float* a, std::size_t a_rs,
                               std::size_t a_cs, const float* b,
                               std::size_t ldb, float* c, std::size_t ldc,
                               const float* bias, int epi) {
  osp::tensor::gemm({m, n, k, a, a_rs, a_cs, b, ldb, c, ldc, bias,
                     static_cast<osp::tensor::Epilogue>(epi)});
}

/// The conv entry points; g = {in_channels, in_h, in_w, kernel, stride, pad}.
OSP_AB_EXPORT void osp_ab_conv_forward(const float* x, const float* w,
                                       const float* bias, const std::size_t* g,
                                       std::size_t out_c, std::size_t batch,
                                       float* out) {
  osp::tensor::conv2d_forward(x, w, bias, geom(g), out_c, batch, out);
}

OSP_AB_EXPORT void osp_ab_conv_backward_data(const float* grad_out,
                                             const float* w,
                                             const std::size_t* g,
                                             std::size_t out_c,
                                             std::size_t batch, float* dx) {
  osp::tensor::conv2d_backward_data(grad_out, w, geom(g), out_c, batch, dx);
}

OSP_AB_EXPORT void osp_ab_conv_backward_weight(
    const float* grad_out, const float* x, const std::size_t* g,
    std::size_t out_c, std::size_t batch, float* wgrad, float* bgrad) {
  osp::tensor::conv2d_backward_weight(grad_out, x, geom(g), out_c, batch,
                                      wgrad, bgrad);
}
