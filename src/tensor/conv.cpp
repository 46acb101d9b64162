#include "tensor/conv.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/gemm.hpp"
#include "util/lanes.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace osp::tensor {

namespace {

using Index = std::ptrdiff_t;
using LaneMask = util::lanes::Bits;
using util::lanes::on;

/// Live lanes of an n-lane span (n ≤ 8) whose lane i reads index off + i
/// of a line with valid indices [0, len).
LaneMask window(Index off, Index len, Index n) {
  const Index lo = std::clamp<Index>(-off, 0, n);
  const Index hi = std::clamp<Index>(len - off, 0, n);
  return ((1u << hi) - 1u) & ~((1u << lo) - 1u);
}

// Spans: up to S::kWidth consecutive floats, one register of a lane type
// (util/lanes.hpp): Scalar, Avx2 or Avx512x8. Only live lanes touch memory:
// a masked load puts base[off + i] in live lane i and +0 in the rest, and a
// masked store writes live lanes only. Image edges thus need no bounds test
// per element: masked-off lanes may lie outside the array, where masked
// loads do not fault. The loop nests are ISA-neutral and inlined into each
// tier's entry point.

/// Lane 0's address, base + off, computed as an integer: it may lie before
/// the array, where pointer arithmetic is undefined and no live lane reads.
const float* lane0(const float* base, Index off) {
  return reinterpret_cast<const float*>(reinterpret_cast<std::uintptr_t>(base) +
                                        std::uintptr_t(off) * sizeof(float));
}

// ---------------------------------------------------------------------------
// Gather loop nests over the first `channels` channels of NCHW data. Tap
// (ky, kx) of patch (oy, ox) reads pixel (oy·s + ky − pad, ox·s + kx − pad),
// +0 off the image. Spans walk ox (forward, dX) or kx (dW), so stride > 1
// runs one-lane spans. Masks depend on the column only and are built
// outside the row loops.
// ---------------------------------------------------------------------------

/// Geometry as signed indices: padding takes coordinates negative.
struct Dims {
  Index k, s, pad, h, w, oh, ow;
  explicit Dims(const Conv2dGeom& g)
      : k(Index(g.kernel)), s(Index(g.stride)), pad(Index(g.pad)),
        h(Index(g.in_h)), w(Index(g.in_w)), oh(Index(g.out_h())),
        ow(Index(g.out_w())) {}
  /// `live` on image row y, none in the padding.
  [[nodiscard]] LaneMask on_row(Index y, LaneMask live) const {
    return -LaneMask(std::size_t(y) < std::size_t(h)) & live;
  }
};

/// X̂_b [C·k·k, oh·ow] of one sample: row (ch, ky, kx) holds, per patch, the
/// pixel under that tap, as one ow-wide span per output row.
template <class S>
OSP_INLINE inline void gather_patches(
    const float* x, const Conv2dGeom& g, std::size_t channels, float* xhat) {
  const Dims d(g);
  constexpr Index kWidth = S::kWidth;
  for (Index kx = 0; kx < d.k; ++kx) {
    for (Index ox = 0; ox < d.ow; ox += kWidth) {
      const Index n = std::min(kWidth, d.ow - ox);
      const Index col = ox * d.s + kx - d.pad;
      const LaneMask live = window(col, d.w, n), all = window(0, n, n);
      for (Index ch = 0; ch < Index(channels); ++ch) {
        for (Index ky = 0; ky < d.k; ++ky) {
          float* dst = xhat + ((ch * d.k + ky) * d.k + kx) * d.oh * d.ow + ox;
          for (Index oy = 0; oy < d.oh; ++oy, dst += d.ow) {
            const Index y = oy * d.s + ky - d.pad;
            S::store(dst, S::load(lane0(x + ch * d.h * d.w, y * d.w + col),
                                  d.on_row(y, live)),
                     all);
          }
        }
      }
    }
  }
}

/// X̂_bᵀ [oh·ow, C·k·k] of one sample: row p holds patch p's taps in
/// (ch, ky, kx) order, im2col's row layout, each (ch, ky) one k-wide span.
template <class S>
OSP_INLINE inline void gather_patches_t(
    const float* x, const Conv2dGeom& g, std::size_t channels, float* xt) {
  const Dims d(g);
  const Index taps = d.k * d.k, cols = Index(channels) * taps;
  constexpr Index kWidth = S::kWidth;
  for (Index ox = 0; ox < d.ow; ++ox) {
    for (Index kx = 0; kx < d.k; kx += kWidth) {
      const Index n = std::min(kWidth, d.k - kx);
      const Index col = ox * d.s - d.pad + kx;
      const LaneMask live = window(col, d.w, n), all = window(0, n, n);
      for (Index oy = 0; oy < d.oh; ++oy) {
        for (Index ky = 0; ky < d.k; ++ky) {
          const Index y = oy * d.s + ky - d.pad;
          float* dst = xt + (oy * d.ow + ox) * cols + ky * d.k + kx;
          for (Index ch = 0; ch < Index(channels); ++ch, dst += taps) {
            S::store(dst, S::load(lane0(x + ch * d.h * d.w, y * d.w + col),
                                  d.on_row(y, live)),
                     all);
          }
        }
      }
    }
  }
}

/// dx_b = col2im(D_b) for D_b [C·k·k, oh·ow], one output row (ch, y) at a
/// time. Pixel (y, x) takes tap (ky, kx) of patch (oy, ox) where
/// oy·s = y + pad − ky and ox·s = x + pad − kx, so a falling ky is a rising
/// oy and, for one ky, a falling kx a rising ox. Walking the taps ky- then
/// kx-descending thus hands every pixel its terms in ascending (oy, ox)
/// order, the order col2im adds them in. Each span of the row is one
/// accumulator that starts at +0, adds one masked load per tap and is
/// stored once: no frame, no zero fill, no copy-out. Lanes a tap does not
/// reach add +0, which changes no sum: the accumulator starts at +0 and a
/// round-to-nearest sum is −0 only when both addends are, so it never
/// holds a −0 for +0 to flip.
template <class S>
OSP_INLINE inline void gather_taps(
    const float* dmat, const Conv2dGeom& g, std::size_t channels, float* dx) {
  const Dims d(g);
  const Index patches = d.oh * d.ow;
  struct Tap { Index ox; LaneMask live; };  // per kx: lane 0's ox, live lanes
  std::vector<Tap> taps(std::size_t(d.k));
  constexpr Index kWidth = S::kWidth;
  for (Index x = 0; x < d.w; x += kWidth) {
    const Index n = std::min(kWidth, d.w - x);
    for (Index kx = 0; kx < d.k; ++kx) {
      const Index tx = x + d.pad - kx;  // ox·s of lane 0
      taps[kx] = {tx / d.s, tx % d.s == 0 ? window(tx / d.s, d.ow, n) : 0};
    }
    for (Index ch = 0; ch < Index(channels); ++ch) {
      const float* dch = dmat + ch * d.k * d.k * patches;
      for (Index y = 0; y < d.h; ++y) {
        typename S::F acc{};  // +0 in every lane
        for (Index ky = d.k; ky-- > 0;) {
          const Index ty = y + d.pad - ky;  // oy·s
          if (ty < 0 || ty % d.s != 0 || ty / d.s >= d.oh) continue;
          const Index off = (ky * d.k * d.oh + ty / d.s) * d.ow;
          for (Index kx = d.k; kx-- > 0;) {
            acc += S::load(lane0(dch, off + kx * patches + taps[kx].ox),
                           taps[kx].live);
          }
        }
        S::store(dx + (ch * d.h + y) * d.w + x, acc, window(0, n, n));
      }
    }
  }
}

using GatherFn = void (*)(const float* src, const Conv2dGeom& g,
                          std::size_t channels, float* dst);

struct Kernels { GatherFn patches, patches_t, taps; };

template <class S>
constexpr Kernels kKernels{on<S, gather_patches<S>>,
                           on<S, gather_patches_t<S>>, on<S, gather_taps<S>>};

/// The active util::simd tier's gathers; one-lane spans for stride > 1.
const Kernels& active_kernels([[maybe_unused]] const Conv2dGeom& g) {
#ifdef OSP_LANES_X86
  const util::simd::Tier tier = util::simd::active_tier();
  if (g.stride == 1 && tier == util::simd::Tier::kAvx512) {
    return kKernels<util::lanes::Avx512x8>;
  }
  if (g.stride == 1 && tier == util::simd::Tier::kAvx2) {
    return kKernels<util::lanes::Avx2>;
  }
#endif
  return kKernels<util::lanes::Scalar>;
}

}  // namespace

void conv2d_forward(const float* x, const float* weight, const float* bias,
                    const Conv2dGeom& g, std::size_t out_c, std::size_t batch,
                    float* out) {
  const std::size_t patches = g.patches(), plen = g.patch_len();
  const std::size_t img = g.in_channels * g.in_h * g.in_w;
  const Kernels& k = active_kernels(g);
  util::ThreadPool::global().parallel_for(
      batch,
      [&](std::size_t b0, std::size_t b1) {
        thread_local std::vector<float> xhat;
        xhat.resize(plen * patches);
        for (std::size_t b = b0; b < b1; ++b) {
          k.patches(x + b * img, g, g.in_channels, xhat.data());
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
  const Kernels& k = active_kernels(g);
  util::ThreadPool::global().parallel_for(
      batch,
      [&](std::size_t b0, std::size_t b1) {
        thread_local std::vector<float> d;
        d.resize(plen * patches);
        for (std::size_t b = b0; b < b1; ++b) {
          // D_b = Wᵀ·G_b: A = Wᵀ read in place (row stride 1, column
          // stride plen), B = G_b straight from grad_out.
          gemm({plen, patches, out_c, weight, 1, plen,
                grad_out + b * out_c * patches, patches, d.data(), patches,
                nullptr, Epilogue::kStore});
          k.taps(d.data(), g, g.in_channels, dx + b * img);
        }
      },
      1);
}

void conv2d_backward_weight(const float* grad_out, const float* x,
                            const Conv2dGeom& g, std::size_t out_c,
                            std::size_t batch, float* wgrad, float* bgrad) {
  const std::size_t patches = g.patches(), plen = g.patch_len();
  const std::size_t plane = g.in_h * g.in_w, img = g.in_channels * plane;
  const std::size_t taps = g.kernel * g.kernel;
  const Kernels& k = active_kernels(g);

  // db: one running sum per channel over (b, p) ascending.
  for (std::size_t b = 0; b < batch; ++b) {
    const float* gb = grad_out + b * out_c * patches;
    for (std::size_t p = 0; p < patches; ++p) {
      for (std::size_t o = 0; o < out_c; ++o) bgrad[o] += gb[o * patches + p];
    }
  }

  // dW, split by input channel: a block owns its wgrad columns outright and
  // walks the batch in order. Blocks of ≥ 64 columns keep the lanes full.
  util::ThreadPool::global().parallel_for(
      g.in_channels,
      [&](std::size_t c0, std::size_t c1) {
        const std::size_t cols = (c1 - c0) * taps;
        thread_local std::vector<float> xt;
        xt.resize(patches * cols);
        for (std::size_t b = 0; b < batch; ++b) {
          k.patches_t(x + b * img + c0 * plane, g, c1 - c0, xt.data());
          gemm({out_c, cols, patches, grad_out + b * out_c * patches,
                patches, 1, xt.data(), cols, wgrad + c0 * taps, plen, nullptr,
                Epilogue::kAccumulate});
        }
      },
      (64 + taps - 1) / taps);
}

}  // namespace osp::tensor
