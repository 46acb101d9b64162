#include "tensor/conv.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
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

/// Live lanes of an n-lane span (n ≤ 16) whose lane i reads index off + i
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

/// What the shifted-image gathers precompute once per kernel call; empty
/// for the span gathers. See shift_plan().
struct ShiftPlan {
  Index groups = 0;               // lane groups per plane
  std::vector<LaneMask> masks;    // [k·k, groups]: live lanes per tap
  Index columns = 0;              // dW: X̂_bᵀ columns, padded to registers
  std::vector<Index> column_src;  // [columns]: offset of its shifted plane
  std::vector<LaneMask> column_masks;  // [groups, columns]: its live lanes
};

/// X̂_b [C·k·k, oh·ow] of one sample: row (ch, ky, kx) holds, per patch, the
/// pixel under that tap, as one ow-wide span per output row.
template <class S>
OSP_INLINE inline void gather_patches(const float* x, const Conv2dGeom& g,
                                      std::size_t channels, const ShiftPlan&,
                                      float* xhat) {
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
/// Same convolutions use shift_patches_t instead.
template <class S>
OSP_INLINE inline void gather_patches_t(const float* x, const Conv2dGeom& g,
                                        std::size_t channels,
                                        const ShiftPlan&, float* xt) {
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
OSP_INLINE inline void gather_taps(const float* dmat, const Conv2dGeom& g,
                                   std::size_t channels, const ShiftPlan&,
                                   float* dx) {
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

// ---------------------------------------------------------------------------
// Shifted-image gathers for stride 1 and pad = (k − 1)/2 ("same"
// convolutions, the only geometry the model zoo runs). There oh·ow = h·w,
// and X̂_b row (ch, ky, kx) at patch p is x_ch[p + shift] with
// shift = (ky − pad)·w + (kx − pad), +0 where pixel (oy + ky − pad,
// ox + kx − pad) is off the image. A register of L's lanes thus covers
// whole image rows (16 lanes: 2 rows at w = 8, 4 at w = 4), and its live
// lanes depend on (ky, kx) and the lane group only: the masks are built
// once per call, one per (ky, kx, group), in a ShiftPlan.
// ---------------------------------------------------------------------------

bool same_geometry(const Conv2dGeom& g) {
  return g.stride == 1 && 2 * g.pad + 1 == g.kernel;
}

/// The plan for lane groups of `width` patches (none for width 0, the span
/// gathers): each tap's live lanes per group, and for dW, whose X̂_bᵀ has
/// one column (ch, ky, kx) per tap of each of `channels` channels, each
/// column's plane offset and live lanes, with dead columns up to a whole
/// register so that a square of columns needs no bounds test.
ShiftPlan shift_plan(const Conv2dGeom& g, Index width, std::size_t channels) {
  ShiftPlan plan;
  if (width == 0) return plan;
  const Dims d(g);
  const Index plane = d.h * d.w, taps = d.k * d.k;
  const Index groups = plan.groups = (plane + width - 1) / width;
  plan.masks.assign(std::size_t(taps * groups), 0);
  for (Index t = 0; t < taps; ++t) {
    const Index dy = t / d.k - d.pad, dx = t % d.k - d.pad;
    for (Index p = 0; p < plane; ++p) {
      const Index y = p / d.w + dy, x = p % d.w + dx;
      if (y < 0 || y >= d.h || x < 0 || x >= d.w) continue;
      plan.masks[std::size_t(t * groups + p / width)] |= LaneMask(1)
                                                         << (p % width);
    }
  }
  const Index cols = Index(channels) * taps;
  const Index padded = plan.columns = (cols + width - 1) / width * width;
  plan.column_src.assign(std::size_t(padded), 0);
  plan.column_masks.assign(std::size_t(groups * padded), 0);
  for (Index j = 0; j < cols; ++j) {
    const Index ch = j / taps, t = j % taps;
    plan.column_src[j] = ch * plane + (t / d.k - d.pad) * d.w + t % d.k - d.pad;
    for (Index q = 0; q < groups; ++q) {
      plan.column_masks[q * padded + j] = plan.masks[t * groups + q];
    }
  }
  return plan;
}

/// X̂_b [C·k·k, h·w] of one sample, each row one shifted copy of a plane.
template <class L>
OSP_INLINE inline void shift_patches(const float* x, const Conv2dGeom& g,
                                     std::size_t channels,
                                     const ShiftPlan& plan, float* xhat) {
  const Dims d(g);
  constexpr Index kWidth = L::kWidth;
  const Index plane = d.h * d.w, groups = plan.groups;
  const LaneMask* masks = plan.masks.data();
  const LaneMask full = window(0, kWidth, kWidth);
  const LaneMask tail = window(0, plane - (groups - 1) * kWidth, kWidth);
  for (Index ch = 0; ch < Index(channels); ++ch) {
    const float* xc = x + ch * plane;
    for (Index ky = 0; ky < d.k; ++ky) {
      for (Index kx = 0; kx < d.k; ++kx) {
        const Index t = ky * d.k + kx, shift = (ky - d.pad) * d.w + kx - d.pad;
        const LaneMask* live = masks + t * groups;
        float* dst = xhat + (ch * d.k * d.k + t) * plane;
        for (Index q = 0; q < groups; ++q) {
          const Index p = q * kWidth;
          L::store(dst + p, L::load(lane0(xc, p + shift), live[q]),
                   q + 1 < groups ? full : tail);
        }
      }
    }
  }
}

/// X̂_bᵀ [h·w, C·k·k] of one sample, kWidth columns by kWidth patches at a
/// time: the registers of shift_patches for columns j0 … j0 + kWidth − 1
/// (column (ch, ky, kx) is the plane of ch shifted by tap (ky, kx)) are
/// transposed in registers, and each then stores one patch's kWidth
/// columns. Registers of the plan's dead columns load +0 and are not
/// stored, nor are rows past the last patch.
template <class L>
OSP_INLINE inline void shift_patches_t(const float* x, const Conv2dGeom& g,
                                       std::size_t channels,
                                       const ShiftPlan& plan, float* xt) {
  const Dims d(g);
  constexpr Index kWidth = L::kWidth;
  const Index plane = d.h * d.w, cols = Index(channels) * d.k * d.k;
  const Index groups = plan.groups, padded = plan.columns;
  const Index* column_src = plan.column_src.data();
  const LaneMask* column_masks = plan.column_masks.data();
  for (Index j0 = 0; j0 < cols; j0 += kWidth) {
    const Index* src = column_src + j0;
    const LaneMask stored = window(0, cols - j0, kWidth);
    for (Index q = 0; q < groups; ++q) {
      const Index p = q * kWidth;
      const LaneMask* live = column_masks + q * padded + j0;
      typename L::F r[kWidth];
#pragma GCC unroll 16
      for (Index j = 0; j < kWidth; ++j) {
        r[j] = L::load(lane0(x, src[j] + p), live[j]);
      }
      L::transpose(r);
      const Index rows = std::min(kWidth, plane - p);
      float* dst = xt + p * cols + j0;
#pragma GCC unroll 16
      for (Index i = 0; i < kWidth; ++i) {
        if (i < rows) L::store(dst + i * cols, r[i], stored);
      }
    }
  }
}

/// dx_b = col2im(D_b) for D_b [C·k·k, h·w]: pixel q takes tap (ky, kx)
/// from D_b row (ch, ky, kx) at patch q − shift, so each lane group of a
/// plane is one accumulator that starts at +0, adds one masked load per tap
/// in gather_taps' order (ky descending, then kx descending: ascending
/// (oy, ox)) and is stored once. The lanes tap (ky, kx) reaches are
/// forward's lanes of the mirrored tap (k−1−ky, k−1−kx).
template <class L>
OSP_INLINE inline void shift_taps(const float* dmat, const Conv2dGeom& g,
                                  std::size_t channels, const ShiftPlan& plan,
                                  float* dx) {
  const Dims d(g);
  constexpr Index kWidth = L::kWidth;
  const Index plane = d.h * d.w, groups = plan.groups;
  const Index taps = d.k * d.k;
  const LaneMask* masks = plan.masks.data();
  const LaneMask full = window(0, kWidth, kWidth);
  const LaneMask tail = window(0, plane - (groups - 1) * kWidth, kWidth);
  for (Index ch = 0; ch < Index(channels); ++ch) {
    const float* dch = dmat + ch * taps * plane;
    for (Index q = 0; q < groups; ++q) {
      const Index p = q * kWidth;
      typename L::F acc = L::set1(0.0f);
      for (Index ky = d.k; ky-- > 0;) {
        for (Index kx = d.k; kx-- > 0;) {
          const Index t = ky * d.k + kx;
          const Index shift = (ky - d.pad) * d.w + kx - d.pad;
          acc = L::add(acc, L::load(lane0(dch + t * plane, p - shift),
                                    masks[(taps - 1 - t) * groups + q]));
        }
      }
      L::store(dx + ch * plane + p, acc, q + 1 < groups ? full : tail);
    }
  }
}

/// A gather over the first `channels` channels; `plan` is shift_plan()'s
/// tables for the shifted-image gathers, unused by the span gathers.
using GatherFn = void (*)(const float* src, const Conv2dGeom& g,
                          std::size_t channels, const ShiftPlan& plan,
                          float* dst);

/// Forward's X̂_b, dW's X̂_bᵀ and dX's col2im gathers of one tier and
/// geometry, and the lane width of their plan (0: spans, no plan).
struct Gathers {
  GatherFn patches, patches_t, taps;
  Index shift_width;
};

template <class S>
constexpr Gathers kSpans{on<S, gather_patches<S>>, on<S, gather_patches_t<S>>,
                         on<S, gather_taps<S>>, 0};

/// Shifted-image gathers of L's full width.
template <class L>
constexpr Gathers kShifted{on<L, shift_patches<L>>, on<L, shift_patches_t<L>>,
                           on<L, shift_taps<L>>, Index(L::kWidth)};

/// The active util::simd tier's gathers: shifted images for same
/// convolutions, spans of up to 8 lanes for other stride-1 convolutions,
/// one-lane spans for stride > 1.
const Gathers& active_gathers(const Conv2dGeom& g) {
  const bool same = same_geometry(g);
#ifdef OSP_LANES_X86
  using util::lanes::Avx2;
  using util::lanes::Avx512;
  using util::lanes::Avx512x8;
  const util::simd::Tier tier = util::simd::active_tier();
  if (g.stride == 1 && tier == util::simd::Tier::kAvx512) {
    return same ? kShifted<Avx512> : kSpans<Avx512x8>;
  }
  if (g.stride == 1 && tier == util::simd::Tier::kAvx2) {
    return same ? kShifted<Avx2> : kSpans<Avx2>;
  }
#endif
  using util::lanes::Scalar;
  return same ? kShifted<Scalar> : kSpans<Scalar>;
}

// ---------------------------------------------------------------------------
// Max pooling: lanes over output positions, each tap one gather through
// the windows' origins. A lane group spans whole planes where a plane has
// fewer outputs than a register (2×2 outputs: 4 planes per 16 lanes).
// ---------------------------------------------------------------------------

struct PoolPlan {
  std::size_t planes, plane;  // input planes and floats per input plane
  std::size_t outs, block;    // outputs per plane, planes per lane block
  std::size_t taps;
  const std::int32_t* origin;   // per output of a block: its window's origin
  const std::int32_t* tap_off;  // per tap: its offset from the origin
};

using PoolFn = void (*)(const float* x, const PoolPlan& pp, float* out,
                        std::size_t* argmax);

template <class L>
OSP_INLINE inline void max_pool(const float* x, const PoolPlan& pp,
                                float* out, std::size_t* argmax) {
  constexpr std::size_t kWidth = L::kWidth;
  for (std::size_t c = 0; c < pp.planes; c += pp.block) {
    const std::size_t n = std::min(pp.block, pp.planes - c) * pp.outs;
    const float* xc = x + c * pp.plane;
    float* oc = out + c * pp.outs;
    std::size_t* ac = argmax + c * pp.outs;
    for (std::size_t q = 0; q < n; q += kWidth) {
      const std::size_t lanes = std::min(kWidth, n - q);
      const LaneMask live = window(0, Index(lanes), Index(kWidth));
      typename L::F best = L::set1(-std::numeric_limits<float>::infinity());
      typename L::F tap = L::set1(0.0f);
      for (std::size_t t = 0; t < pp.taps; ++t) {
        const typename L::F v = L::gather(xc + pp.tap_off[t], pp.origin + q,
                                          live);
        const typename L::M up = L::gt(v, best);
        best = L::select(up, v, best);
        tap = L::select(up, L::set1(float(t)), tap);
      }
      L::store(oc + q, best, live);
      float picked[kWidth];
      L::store(picked, tap);
      for (std::size_t i = 0; i < lanes; ++i) {
        ac[q + i] = c * pp.plane + std::size_t(pp.origin[q + i]) +
                    std::size_t(pp.tap_off[std::size_t(picked[i])]);
      }
    }
  }
}

/// The active tier's kernel and its lane width.
std::pair<PoolFn, std::size_t> active_max_pool() {
#ifdef OSP_LANES_X86
  switch (util::simd::active_tier()) {
    case util::simd::Tier::kAvx512:
      return {on<util::lanes::Avx512, max_pool<util::lanes::Avx512>>,
              util::lanes::Avx512::kWidth};
    case util::simd::Tier::kAvx2:
      return {on<util::lanes::Avx2, max_pool<util::lanes::Avx2>>,
              util::lanes::Avx2::kWidth};
    case util::simd::Tier::kScalar:
      break;
  }
#endif
  return {on<util::lanes::Scalar, max_pool<util::lanes::Scalar>>, 1};
}

}  // namespace

void max_pool2d_forward(const float* x, const Conv2dGeom& g,
                        std::size_t planes, float* out, std::size_t* argmax) {
  const auto [kernel, width] = active_max_pool();
  const std::size_t plane = g.in_h * g.in_w, outs = g.out_h() * g.out_w();
  const std::size_t block = std::max<std::size_t>(1, width / outs);
  std::vector<std::int32_t> origin(block * outs);
  for (std::size_t b = 0, q = 0; b < block; ++b) {
    for (std::size_t oy = 0; oy < g.out_h(); ++oy) {
      for (std::size_t ox = 0; ox < g.out_w(); ++ox, ++q) {
        origin[q] =
            std::int32_t(b * plane + (oy * g.in_w + ox) * g.stride);
      }
    }
  }
  std::vector<std::int32_t> tap_off(g.kernel * g.kernel);
  for (std::size_t t = 0; t < tap_off.size(); ++t) {
    tap_off[t] = std::int32_t(t / g.kernel * g.in_w + t % g.kernel);
  }
  kernel(x, {planes, plane, outs, block, tap_off.size(), origin.data(),
             tap_off.data()},
         out, argmax);
}

void conv2d_forward(const float* x, const float* weight, const float* bias,
                    const Conv2dGeom& g, std::size_t out_c, std::size_t batch,
                    float* out) {
  const std::size_t patches = g.patches(), plen = g.patch_len();
  const std::size_t img = g.in_channels * g.in_h * g.in_w;
  const Gathers& k = active_gathers(g);
  const ShiftPlan plan = shift_plan(g, k.shift_width, 0);
  util::ThreadPool::global().parallel_for(
      batch,
      [&](std::size_t b0, std::size_t b1) {
        thread_local std::vector<float> xhat;
        xhat.resize(plen * patches);
        for (std::size_t b = b0; b < b1; ++b) {
          k.patches(x + b * img, g, g.in_channels, plan, xhat.data());
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
  const Gathers& k = active_gathers(g);
  const ShiftPlan plan = shift_plan(g, k.shift_width, 0);
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
          k.taps(d.data(), g, g.in_channels, plan, dx + b * img);
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
  const Gathers& k = active_gathers(g);
  const ShiftPlan plan = shift_plan(g, k.shift_width, g.in_channels);

  // db: one running sum per channel over (b, p) ascending, reading each of
  // the channel's rows of grad_out in turn.
  for (std::size_t o = 0; o < out_c; ++o) {
    float sum = bgrad[o];
    for (std::size_t b = 0; b < batch; ++b) {
      const float* row = grad_out + (b * out_c + o) * patches;
      for (std::size_t p = 0; p < patches; ++p) sum += row[p];
    }
    bgrad[o] = sum;
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
          k.patches_t(x + b * img + c0 * plane, g, c1 - c0, plan, xt.data());
          gemm({out_c, cols, patches, grad_out + b * out_c * patches,
                patches, 1, xt.data(), cols, wgrad + c0 * taps, plen, nullptr,
                Epilogue::kAccumulate});
        }
      },
      (64 + taps - 1) / taps);
}

}  // namespace osp::tensor
