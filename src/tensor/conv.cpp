#include "tensor/conv.hpp"

#include <algorithm>
#include <vector>

#include "tensor/gemm.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define OSP_CONV_X86 1
#endif

namespace osp::tensor {

namespace {

// ---------------------------------------------------------------------------
// Packing and scatter kernels. copy: dst[r·dst_ld + i] = src[r·src_ld + i]
// for r < rows, i < n. Rows are short (a patch row, a kernel row), so the
// vector tiers move each one with a masked load and store instead of a
// loop and a library call.
// ---------------------------------------------------------------------------

using BlockFn = void (*)(const float* src, std::size_t src_ld, float* dst,
                         std::size_t dst_ld, std::size_t rows, std::size_t n);

void copy_block_scalar(const float* src, std::size_t src_ld, float* dst,
                       std::size_t dst_ld, std::size_t rows, std::size_t n) {
  for (std::size_t r = 0; r < rows; ++r) {
    std::copy(src + r * src_ld, src + r * src_ld + n, dst + r * dst_ld);
  }
}

/// Scatter of one kernel row (fixed ch, ky) of D_b into a unit-stride frame:
/// for r < rows, kx = k−1 … 0, i < n: dst[r·dst_ld + kx + i] += d[kx·tap_ld +
/// r·n + i]. Within a frame row, a falling kx is a rising ox for every pixel.
using ScatterFn = void (*)(const float* d, std::size_t tap_ld, std::size_t k,
                           float* dst, std::size_t dst_ld, std::size_t rows,
                           std::size_t n);

void scatter_taps_scalar(const float* d, std::size_t tap_ld, std::size_t k,
                         float* dst, std::size_t dst_ld, std::size_t rows,
                         std::size_t n) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* row = dst + r * dst_ld;
    for (std::size_t kx = k; kx-- > 0;) {
      const float* src = d + kx * tap_ld + r * n;
      for (std::size_t i = 0; i < n; ++i) row[kx + i] += src[i];
    }
  }
}

#ifdef OSP_CONV_X86

__attribute__((target("avx2"))) __m256i lane_mask_avx2(std::size_t lanes) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(lanes)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

__attribute__((target("avx2"))) void copy_block_avx2(
    const float* src, std::size_t src_ld, float* dst, std::size_t dst_ld,
    std::size_t rows, std::size_t n) {
  const std::size_t full = n / 8 * 8;
  const __m256i tail = lane_mask_avx2(n - full);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* s = src + r * src_ld;
    float* d = dst + r * dst_ld;
    for (std::size_t i = 0; i < full; i += 8) {
      _mm256_storeu_ps(d + i, _mm256_loadu_ps(s + i));
    }
    if (full < n) {
      _mm256_maskstore_ps(d + full, tail, _mm256_maskload_ps(s + full, tail));
    }
  }
}

__attribute__((target("avx512f"))) void copy_block_avx512(
    const float* src, std::size_t src_ld, float* dst, std::size_t dst_ld,
    std::size_t rows, std::size_t n) {
  const std::size_t full = n / 16 * 16;
  const auto tail = static_cast<__mmask16>((1u << (n - full)) - 1u);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* s = src + r * src_ld;
    float* d = dst + r * dst_ld;
    for (std::size_t i = 0; i < full; i += 16) {
      _mm512_storeu_ps(d + i, _mm512_loadu_ps(s + i));
    }
    if (full < n) {
      _mm512_mask_storeu_ps(d + full, tail,
                            _mm512_maskz_loadu_ps(tail, s + full));
    }
  }
}

/// A frame row no wider than one vector stays in a register across the k
/// taps: each tap's n values are expand-loaded into lanes kx … kx+n−1 and
/// added there only (a masked add, so untouched lanes keep their −0s).
__attribute__((target("avx512f"))) void scatter_taps_avx512(
    const float* d, std::size_t tap_ld, std::size_t k, float* dst,
    std::size_t dst_ld, std::size_t rows, std::size_t n) {
  const std::size_t width = n + k - 1;
  if (width > 16) {
    scatter_taps_scalar(d, tap_ld, k, dst, dst_ld, rows, n);
    return;
  }
  const auto row_mask = static_cast<__mmask16>((1u << width) - 1u);
  const auto tap_mask = static_cast<__mmask16>((1u << n) - 1u);
  for (std::size_t r = 0; r < rows; ++r) {
    float* row = dst + r * dst_ld;
    __m512 acc = _mm512_maskz_loadu_ps(row_mask, row);
    for (std::size_t kx = k; kx-- > 0;) {
      const auto m = static_cast<__mmask16>(tap_mask << kx);
      const __m512 v = _mm512_maskz_expandloadu_ps(m, d + kx * tap_ld + r * n);
      acc = _mm512_mask_add_ps(acc, m, acc, v);
    }
    _mm512_mask_storeu_ps(row, row_mask, acc);
  }
}

#endif  // OSP_CONV_X86

struct Kernels {
  BlockFn copy;
  ScatterFn scatter;
};

/// The active util::simd tier's packing kernels.
const Kernels& active_kernels() {
  static constexpr Kernels kScalar{copy_block_scalar, scatter_taps_scalar};
#ifdef OSP_CONV_X86
  static constexpr Kernels kAvx2{copy_block_avx2, scatter_taps_scalar};
  static constexpr Kernels kAvx512{copy_block_avx512, scatter_taps_avx512};
  switch (util::simd::active_tier()) {
    case util::simd::Tier::kAvx512:
      return kAvx512;
    case util::simd::Tier::kAvx2:
      return kAvx2;
    case util::simd::Tier::kScalar:
      break;
  }
#endif
  return kScalar;
}

// ---------------------------------------------------------------------------
// Patch geometry. Each sample is first copied into a zero frame `pad` wide
// ([C, H + 2·pad, W + 2·pad]), where kernel tap (ky, kx) of output (oy, ox)
// reads frame pixel (oy·s + ky, ox·s + kx): every patch row is then a plain
// strided copy, with no bounds test per element or per row.
// ---------------------------------------------------------------------------

struct Frame {
  std::size_t h, w;  // padded height and width
  explicit Frame(const Conv2dGeom& g)
      : h(g.in_h + 2 * g.pad), w(g.in_w + 2 * g.pad) {}
  [[nodiscard]] std::size_t plane() const { return h * w; }
};

/// Channels [c0, c1) of one sample into a zeroed frame.
void frame_image(const float* x, const Conv2dGeom& g, const Frame& f,
                 std::size_t c0, std::size_t c1, const Kernels& k, float* xf) {
  std::fill(xf, xf + (c1 - c0) * f.plane(), 0.0f);
  for (std::size_t ch = c0; ch < c1; ++ch) {
    k.copy(x + ch * g.in_h * g.in_w, g.in_w,
           xf + (ch - c0) * f.plane() + g.pad * f.w + g.pad, f.w, g.in_h,
           g.in_w);
  }
}

/// X̂_b [C·k·k, oh·ow] from a framed sample: row (ch, ky, kx) holds, per
/// patch, the pixel under that tap (0 in the padding).
void pack_patches(const float* xf, const Conv2dGeom& g, const Frame& f,
                  const Kernels& k, float* xhat) {
  const std::size_t kk = g.kernel, s = g.stride;
  const std::size_t oh = g.out_h(), ow = g.out_w(), patches = g.patches();
  for (std::size_t ch = 0; ch < g.in_channels; ++ch) {
    for (std::size_t ky = 0; ky < kk; ++ky) {
      for (std::size_t kx = 0; kx < kk; ++kx) {
        const float* src = xf + ch * f.plane() + ky * f.w + kx;
        float* dst = xhat + ((ch * kk + ky) * kk + kx) * patches;
        if (s == 1) {
          k.copy(src, f.w, dst, ow, oh, ow);
          continue;
        }
        for (std::size_t oy = 0; oy < oh; ++oy) {
          for (std::size_t ox = 0; ox < ow; ++ox) {
            dst[oy * ow + ox] = src[oy * s * f.w + ox * s];
          }
        }
      }
    }
  }
}

/// X̂_bᵀ restricted to channels [c0, c1) of a framed sample ([c1 − c0, …]):
/// [oh·ow, (c1 − c0)·k·k], row p holding patch p's taps in (ch, ky, kx)
/// order — im2col's row layout. Each (oy, ch, ky) is one block of ow rows
/// of k taps.
void pack_patches_t(const float* xf, const Conv2dGeom& g, const Frame& f,
                    std::size_t channels, const Kernels& k, float* xt) {
  const std::size_t kk = g.kernel, s = g.stride;
  const std::size_t ow = g.out_w(), cols = channels * kk * kk;
  for (std::size_t oy = 0; oy < g.out_h(); ++oy) {
    for (std::size_t ch = 0; ch < channels; ++ch) {
      for (std::size_t ky = 0; ky < kk; ++ky) {
        k.copy(xf + ch * f.plane() + (oy * s + ky) * f.w, s,
               xt + oy * ow * cols + (ch * kk + ky) * kk, cols, ow, kk);
      }
    }
  }
}

/// Framed dx_b += col2im(D_b) for D_b [C·k·k, oh·ow]. A frame pixel's terms
/// satisfy oy·s + ky = const and ox·s + kx = const, so a falling ky is a
/// rising oy and, for one ky, a falling kx a rising ox. Walking ky and kx
/// descending therefore hands every pixel its terms in ascending (oy, ox)
/// order, as col2im adds them.
void scatter_patches(const float* d, const Conv2dGeom& g, const Frame& f,
                     const Kernels& k, float* dxf) {
  const std::size_t kk = g.kernel, s = g.stride;
  const std::size_t oh = g.out_h(), ow = g.out_w(), patches = g.patches();
  for (std::size_t ch = 0; ch < g.in_channels; ++ch) {
    for (std::size_t ky = kk; ky-- > 0;) {
      if (s == 1) {
        k.scatter(d + (ch * kk + ky) * kk * patches, patches, kk,
                  dxf + ch * f.plane() + ky * f.w, f.w, oh, ow);
        continue;
      }
      for (std::size_t kx = kk; kx-- > 0;) {
        const float* src = d + ((ch * kk + ky) * kk + kx) * patches;
        float* dst = dxf + ch * f.plane() + ky * f.w + kx;
        for (std::size_t oy = 0; oy < oh; ++oy) {
          for (std::size_t ox = 0; ox < ow; ++ox) {
            dst[oy * s * f.w + ox * s] += src[oy * ow + ox];
          }
        }
      }
    }
  }
}

}  // namespace

void conv2d_forward(const float* x, const float* weight, const float* bias,
                    const Conv2dGeom& g, std::size_t out_c, std::size_t batch,
                    float* out) {
  const std::size_t patches = g.patches(), plen = g.patch_len();
  const std::size_t img = g.in_channels * g.in_h * g.in_w;
  const Frame f(g);
  const Kernels& k = active_kernels();
  util::ThreadPool::global().parallel_for(
      batch,
      [&](std::size_t b0, std::size_t b1) {
        thread_local std::vector<float> xf, xhat;
        xf.resize(g.in_channels * f.plane());
        xhat.resize(plen * patches);
        for (std::size_t b = b0; b < b1; ++b) {
          frame_image(x + b * img, g, f, 0, g.in_channels, k, xf.data());
          pack_patches(xf.data(), g, f, k, xhat.data());
          gemm({out_c, patches, plen, weight, plen, 1, xhat.data(), patches,
                out + b * out_c * patches, patches, bias,
                Epilogue::kAddBias});
        }
      },
      1);
}

void conv2d_backward_data(const float* grad_out, const float* weight,
                          const Conv2dGeom& g, std::size_t out_c,
                          std::size_t batch, float* dx) {
  const std::size_t patches = g.patches(), plen = g.patch_len();
  const std::size_t img = g.in_channels * g.in_h * g.in_w;
  const Frame f(g);
  const Kernels& k = active_kernels();
  util::ThreadPool::global().parallel_for(
      batch,
      [&](std::size_t b0, std::size_t b1) {
        thread_local std::vector<float> d, dxf;
        d.resize(plen * patches);
        dxf.resize(g.in_channels * f.plane());
        for (std::size_t b = b0; b < b1; ++b) {
          // D_b = Wᵀ·G_b: A = Wᵀ read in place (row stride 1, column
          // stride plen), B = G_b straight from grad_out.
          gemm({plen, patches, out_c, weight, 1, plen,
                grad_out + b * out_c * patches, patches, d.data(), patches,
                nullptr, Epilogue::kStore});
          std::fill(dxf.begin(), dxf.end(), 0.0f);
          scatter_patches(d.data(), g, f, k, dxf.data());
          for (std::size_t ch = 0; ch < g.in_channels; ++ch) {
            k.copy(dxf.data() + ch * f.plane() + g.pad * f.w + g.pad, f.w,
                   dx + b * img + ch * g.in_h * g.in_w, g.in_w, g.in_h,
                   g.in_w);
          }
        }
      },
      1);
}

void conv2d_backward_weight(const float* grad_out, const float* x,
                            const Conv2dGeom& g, std::size_t out_c,
                            std::size_t batch, float* wgrad, float* bgrad) {
  const std::size_t patches = g.patches(), plen = g.patch_len();
  const std::size_t img = g.in_channels * g.in_h * g.in_w;
  const std::size_t taps = g.kernel * g.kernel;
  const Frame f(g);
  const Kernels& k = active_kernels();

  // db: one running sum per channel over (b, p) ascending.
  std::vector<float> db(bgrad, bgrad + out_c);
  for (std::size_t b = 0; b < batch; ++b) {
    const float* gb = grad_out + b * out_c * patches;
    for (std::size_t p = 0; p < patches; ++p) {
      for (std::size_t oc = 0; oc < out_c; ++oc) db[oc] += gb[oc * patches + p];
    }
  }
  std::copy(db.begin(), db.end(), bgrad);

  // dW, split by input channel: a block owns its wgrad columns outright and
  // walks the batch in order. Blocks of ≥ 64 columns keep the lanes full.
  util::ThreadPool::global().parallel_for(
      g.in_channels,
      [&](std::size_t c0, std::size_t c1) {
        const std::size_t cols = (c1 - c0) * taps;
        thread_local std::vector<float> xf, xt;
        xf.resize((c1 - c0) * f.plane());
        xt.resize(patches * cols);
        for (std::size_t b = 0; b < batch; ++b) {
          frame_image(x + b * img, g, f, c0, c1, k, xf.data());
          pack_patches_t(xf.data(), g, f, c1 - c0, k, xt.data());
          gemm({out_c, cols, patches, grad_out + b * out_c * patches,
                patches, 1, xt.data(), cols, wgrad + c0 * taps, plen, nullptr,
                Epilogue::kAccumulate});
        }
      },
      (64 + taps - 1) / taps);
}

}  // namespace osp::tensor
