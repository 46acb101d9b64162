#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/check.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define OSP_GEMM_X86_DISPATCH 1
#endif

namespace osp::tensor {

namespace {

// ---------------------------------------------------------------------------
// Blocked GEMM.
//
// All three matmul orientations route through one cache-blocked,
// register-tiled kernel (BLIS-style): A and B are repacked into contiguous
// panels (packing absorbs the transposed orientations), the inner loop
// computes a kMR×kNR register tile, and K is cut into kc panels sized to
// keep both packed operands cache-resident.
//
// Numerical contract: every C element is produced by ONE accumulator that
// adds a[i,p]*b[p,j] terms in ascending p, seeded from C between kc panels.
// That is exactly the order of the straight-loop kernels this replaced, so
// results are bit-identical to them and independent of both the blocking
// parameters and the thread count (threads partition M, never K).
// ---------------------------------------------------------------------------

// Register tile. 4×8 keeps the accumulator tile plus one A broadcast and
// two B vectors inside 16 xmm registers on baseline x86-64.
constexpr std::size_t kMR = 4;
constexpr std::size_t kNR = 8;
// Cache blocking: packed B panel (kKC×kNC) ~2 MB streams from L3, each
// packed A strip (kMR×kKC) ~8 KB streams from L1.
constexpr std::size_t kKC = 512;
constexpr std::size_t kNC = 1024;

// Parallelizing or packing tiny matmuls costs more than it saves.
constexpr std::size_t kMinFlopsPerChunk = 262144;
constexpr std::size_t kSmallGemmElems = 16384;  // m*n*k below: naive inline

enum class Trans { N, T };

// ---------------------------------------------------------------------------
// Micro-kernel: rank-kl update of one kMR×kNR accumulator tile from packed
// panels. `ap` is kl×kMR (column of A strips), `bp` is kl×kNR, `acc` is the
// row-major kMR×kNR tile. Picked per call from util::simd::active_tier(): on
// the AVX2 tiers and up each tile row is one 8-lane vector. Both variants
// perform the identical sequence of IEEE mul-then-add per element (lanes are
// independent j columns; k stays serial, and FMA is deliberately NOT used
// because fusing would change rounding), so results are bit-identical
// across the dispatch.
// ---------------------------------------------------------------------------

void micro_kernel_portable(const float* __restrict ap,
                           const float* __restrict bp, std::size_t kl,
                           float* __restrict acc) {
  for (std::size_t p = 0; p < kl; ++p) {
    const float* arow = ap + p * kMR;
    const float* brow = bp + p * kNR;
    for (std::size_t ii = 0; ii < kMR; ++ii) {
      const float av = arow[ii];
      for (std::size_t jj = 0; jj < kNR; ++jj) {
        acc[ii * kNR + jj] += av * brow[jj];
      }
    }
  }
}

#ifdef OSP_GEMM_X86_DISPATCH
static_assert(kMR == 4 && kNR == 8, "AVX2 micro-kernel assumes a 4x8 tile");
__attribute__((target("avx2"))) void micro_kernel_avx2(
    const float* __restrict ap, const float* __restrict bp, std::size_t kl,
    float* __restrict acc) {
  __m256 c0 = _mm256_loadu_ps(acc + 0);
  __m256 c1 = _mm256_loadu_ps(acc + 8);
  __m256 c2 = _mm256_loadu_ps(acc + 16);
  __m256 c3 = _mm256_loadu_ps(acc + 24);
  for (std::size_t p = 0; p < kl; ++p) {
    const __m256 bv = _mm256_loadu_ps(bp + p * 8);
    const float* arow = ap + p * 4;
    c0 = _mm256_add_ps(c0, _mm256_mul_ps(_mm256_broadcast_ss(arow + 0), bv));
    c1 = _mm256_add_ps(c1, _mm256_mul_ps(_mm256_broadcast_ss(arow + 1), bv));
    c2 = _mm256_add_ps(c2, _mm256_mul_ps(_mm256_broadcast_ss(arow + 2), bv));
    c3 = _mm256_add_ps(c3, _mm256_mul_ps(_mm256_broadcast_ss(arow + 3), bv));
  }
  _mm256_storeu_ps(acc + 0, c0);
  _mm256_storeu_ps(acc + 8, c1);
  _mm256_storeu_ps(acc + 16, c2);
  _mm256_storeu_ps(acc + 24, c3);
}
#endif

using MicroKernelFn = void (*)(const float* __restrict, const float* __restrict,
                               std::size_t, float* __restrict);

MicroKernelFn active_micro_kernel() {
#ifdef OSP_GEMM_X86_DISPATCH
  if (util::simd::active_tier() >= util::simd::Tier::kAvx2) {
    return micro_kernel_avx2;
  }
#endif
  return micro_kernel_portable;
}

inline float a_elem(const float* a, std::size_t lda, Trans t, std::size_t i,
                    std::size_t p) {
  return t == Trans::N ? a[i * lda + p] : a[p * lda + i];
}

inline float b_elem(const float* b, std::size_t ldb, Trans t, std::size_t p,
                    std::size_t j) {
  return t == Trans::N ? b[p * ldb + j] : b[j * ldb + p];
}

/// C[m,n] (row-major, ldc) = A·B, or += when `accumulate`.
void gemm_blocked(std::size_t m, std::size_t n, std::size_t k, const float* a,
                  std::size_t lda, Trans ta, const float* b, std::size_t ldb,
                  Trans tb, bool accumulate, float* c, std::size_t ldc) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (!accumulate) {
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) c[i * ldc + j] = 0.0f;
      }
    }
    return;
  }
  const MicroKernelFn micro_kernel = active_micro_kernel();
  thread_local std::vector<float> bpack;
  for (std::size_t jc = 0; jc < n; jc += kNC) {
    const std::size_t ncl = std::min(kNC, n - jc);
    const std::size_t npanels = (ncl + kNR - 1) / kNR;
    for (std::size_t pc = 0; pc < k; pc += kKC) {
      const std::size_t kl = std::min(kKC, k - pc);
      const bool first_panel = pc == 0;
      // Pack B once per (jc, pc) block; every M strip reuses it.
      bpack.resize(npanels * kl * kNR);
      for (std::size_t jp = 0; jp < npanels; ++jp) {
        float* dst = bpack.data() + jp * kl * kNR;
        const std::size_t j0 = jc + jp * kNR;
        const std::size_t nr = std::min(kNR, n - j0);
        for (std::size_t p = 0; p < kl; ++p) {
          for (std::size_t jj = 0; jj < kNR; ++jj) {
            dst[p * kNR + jj] =
                jj < nr ? b_elem(b, ldb, tb, pc + p, j0 + jj) : 0.0f;
          }
        }
      }
      const std::size_t strips = (m + kMR - 1) / kMR;
      const std::size_t strip_flops = 2 * kMR * kl * ncl + 1;
      const std::size_t grain =
          std::max<std::size_t>(1, kMinFlopsPerChunk / strip_flops);
      const float* bpack_data = bpack.data();
      util::ThreadPool::global().parallel_for(
          strips,
          [&, bpack_data](std::size_t s0, std::size_t s1) {
            thread_local std::vector<float> apack;
            apack.resize(kl * kMR);
            float* ap = apack.data();
            for (std::size_t s = s0; s < s1; ++s) {
              const std::size_t i0 = s * kMR;
              const std::size_t mr = std::min(kMR, m - i0);
              for (std::size_t p = 0; p < kl; ++p) {
                for (std::size_t ii = 0; ii < kMR; ++ii) {
                  ap[p * kMR + ii] =
                      ii < mr ? a_elem(a, lda, ta, i0 + ii, pc + p) : 0.0f;
                }
              }
              for (std::size_t jp = 0; jp < npanels; ++jp) {
                const std::size_t j0 = jc + jp * kNR;
                const std::size_t nr = std::min(kNR, n - j0);
                alignas(32) float acc[kMR * kNR];
                if (first_panel && !accumulate) {
                  for (float& v : acc) v = 0.0f;
                } else {
                  for (std::size_t ii = 0; ii < kMR; ++ii) {
                    for (std::size_t jj = 0; jj < kNR; ++jj) {
                      acc[ii * kNR + jj] = (ii < mr && jj < nr)
                                               ? c[(i0 + ii) * ldc + j0 + jj]
                                               : 0.0f;
                    }
                  }
                }
                micro_kernel(ap, bpack_data + jp * kl * kNR, kl, acc);
                for (std::size_t ii = 0; ii < mr; ++ii) {
                  for (std::size_t jj = 0; jj < nr; ++jj) {
                    c[(i0 + ii) * ldc + j0 + jj] = acc[ii * kNR + jj];
                  }
                }
              }
            }
          },
          grain);
    }
  }
}

// Straight-loop fallbacks for matmuls too small to amortize packing. Same
// per-element accumulation order as the blocked kernel.
void matmul_small(std::size_t m, std::size_t k, std::size_t n, const float* pa,
                  const float* pb, float* pc) {
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = pc + i * n;
    std::fill(crow, crow + n, 0.0f);
    const float* arow = pa + i * k;
    for (std::size_t p = 0; p < k; ++p) {
      const float av = arow[p];
      const float* brow = pb + p * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void matmul_tn_small(std::size_t m, std::size_t k, std::size_t n,
                     const float* pa, const float* pb, float* pc,
                     bool accumulate) {
  for (std::size_t i = 0; i < k; ++i) {
    float* crow = pc + i * n;
    if (!accumulate) std::fill(crow, crow + n, 0.0f);
    for (std::size_t p = 0; p < m; ++p) {
      const float av = pa[p * k + i];
      const float* brow = pb + p * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void matmul_nt_small(std::size_t m, std::size_t k, std::size_t n,
                     const float* pa, const float* pb, float* pc) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    float* crow = pc + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      float s = 0.0f;
      for (std::size_t p = 0; p < k; ++p) s += arow[p] * brow[p];
      crow[j] = s;
    }
  }
}

void check_matrix(const Tensor& t, const char* name) {
  OSP_CHECK(t.rank() == 2, "matmul operand must be rank-2");
  (void)name;
}

}  // namespace

void matmul(const Tensor& a, const Tensor& b, Tensor& c) {
  check_matrix(a, "a");
  check_matrix(b, "b");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  OSP_CHECK(b.dim(0) == k, "matmul inner dimension mismatch");
  OSP_CHECK(c.rank() == 2 && c.dim(0) == m && c.dim(1) == n,
            "matmul output shape mismatch");
  if (m * n * k < kSmallGemmElems) {
    matmul_small(m, k, n, a.raw(), b.raw(), c.raw());
    return;
  }
  gemm_blocked(m, n, k, a.raw(), k, Trans::N, b.raw(), n, Trans::N,
               /*accumulate=*/false, c.raw(), n);
}

void matmul_tn(const Tensor& a, const Tensor& b, Tensor& c) {
  check_matrix(a, "a");
  check_matrix(b, "b");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  OSP_CHECK(b.dim(0) == m, "matmul_tn outer dimension mismatch");
  OSP_CHECK(c.rank() == 2 && c.dim(0) == k && c.dim(1) == n,
            "matmul_tn output shape mismatch");
  if (m * n * k < kSmallGemmElems) {
    matmul_tn_small(m, k, n, a.raw(), b.raw(), c.raw(), /*accumulate=*/false);
    return;
  }
  // C[k,n] = Aᵀ·B: the packed A accessor reads A transposed.
  gemm_blocked(k, n, m, a.raw(), k, Trans::T, b.raw(), n, Trans::N,
               /*accumulate=*/false, c.raw(), n);
}

void matmul_tn_acc(const Tensor& a, const Tensor& b, Tensor& c) {
  check_matrix(a, "a");
  check_matrix(b, "b");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  OSP_CHECK(b.dim(0) == m, "matmul_tn_acc outer dimension mismatch");
  OSP_CHECK(c.rank() == 2 && c.dim(0) == k && c.dim(1) == n,
            "matmul_tn_acc output shape mismatch");
  if (m * n * k < kSmallGemmElems) {
    matmul_tn_small(m, k, n, a.raw(), b.raw(), c.raw(), /*accumulate=*/true);
    return;
  }
  gemm_blocked(k, n, m, a.raw(), k, Trans::T, b.raw(), n, Trans::N,
               /*accumulate=*/true, c.raw(), n);
}

void matmul_nt(const Tensor& a, const Tensor& b, Tensor& c) {
  check_matrix(a, "a");
  check_matrix(b, "b");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  OSP_CHECK(b.dim(1) == k, "matmul_nt inner dimension mismatch");
  OSP_CHECK(c.rank() == 2 && c.dim(0) == m && c.dim(1) == n,
            "matmul_nt output shape mismatch");
  if (m * n * k < kSmallGemmElems) {
    matmul_nt_small(m, k, n, a.raw(), b.raw(), c.raw());
    return;
  }
  // C[m,n] = A·Bᵀ: the packed B accessor reads B transposed, turning the
  // unvectorizable dot-product loop into the shared panel kernel.
  gemm_blocked(m, n, k, a.raw(), k, Trans::N, b.raw(), k, Trans::T,
               /*accumulate=*/false, c.raw(), n);
}

void add_bias_rows(Tensor& x, std::span<const float> bias) {
  OSP_CHECK(x.rank() == 2, "add_bias_rows needs rank-2");
  OSP_CHECK(bias.size() == x.dim(1), "bias size mismatch");
  const std::size_t rows = x.dim(0), cols = x.dim(1);
  float* px = x.raw();
  const float* pb = bias.data();
  util::ThreadPool::global().parallel_for(
      rows,
      [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
          float* row = px + r * cols;
          for (std::size_t c = 0; c < cols; ++c) row[c] += pb[c];
        }
      },
      std::max<std::size_t>(1, (1u << 15) / std::max<std::size_t>(1, cols)));
}

void sum_rows(const Tensor& x, std::span<float> out) {
  OSP_CHECK(x.rank() == 2, "sum_rows needs rank-2");
  OSP_CHECK(out.size() == x.dim(1), "output size mismatch");
  const std::size_t rows = x.dim(0), cols = x.dim(1);
  const float* px = x.raw();
  float* po = out.data();
  // Parallel over COLUMNS: each out[c] is owned by exactly one chunk and
  // accumulates rows in ascending order, so the result is race-free and
  // bit-identical for every thread count.
  util::ThreadPool::global().parallel_for(
      cols,
      [&](std::size_t c0, std::size_t c1) {
        for (std::size_t r = 0; r < rows; ++r) {
          const float* row = px + r * cols;
          for (std::size_t c = c0; c < c1; ++c) po[c] += row[c];
        }
      },
      std::max<std::size_t>(64, (1u << 15) / std::max<std::size_t>(1, rows)));
}

void softmax_rows(const Tensor& x, Tensor& out) {
  OSP_CHECK(x.rank() == 2, "softmax_rows needs rank-2");
  OSP_CHECK(out.rank() == 2 && out.dim(0) == x.dim(0) && out.dim(1) == x.dim(1),
            "softmax output shape mismatch");
  const std::size_t rows = x.dim(0), cols = x.dim(1);
  OSP_CHECK(cols > 0, "softmax over empty row");
  const float* px = x.raw();
  float* po = out.raw();
  util::ThreadPool::global().parallel_for(
      rows,
      [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
          const float* in = px + r * cols;
          float* o = po + r * cols;
          float mx = in[0];
          for (std::size_t c = 1; c < cols; ++c) mx = std::max(mx, in[c]);
          float denom = 0.0f;
          for (std::size_t c = 0; c < cols; ++c) {
            o[c] = std::exp(in[c] - mx);
            denom += o[c];
          }
          const float inv = 1.0f / denom;
          for (std::size_t c = 0; c < cols; ++c) o[c] *= inv;
        }
      },
      std::max<std::size_t>(1, (1u << 13) / std::max<std::size_t>(1, cols)));
}

void transpose(const Tensor& a, Tensor& b) {
  OSP_CHECK(a.rank() == 2, "transpose needs rank-2");
  const std::size_t m = a.dim(0), n = a.dim(1);
  OSP_CHECK(b.rank() == 2 && b.dim(0) == n && b.dim(1) == m,
            "transpose output shape mismatch");
  const float* pa = a.raw();
  float* pb = b.raw();
  // Tiled to keep both the strided reads and the contiguous writes within
  // cache lines; parallel over output-row blocks.
  constexpr std::size_t kBlock = 64;
  const std::size_t jblocks = (n + kBlock - 1) / kBlock;
  util::ThreadPool::global().parallel_for(
      jblocks,
      [&](std::size_t jb0, std::size_t jb1) {
        for (std::size_t jb = jb0; jb < jb1; ++jb) {
          const std::size_t j0 = jb * kBlock;
          const std::size_t j1 = std::min(n, j0 + kBlock);
          for (std::size_t i0 = 0; i0 < m; i0 += kBlock) {
            const std::size_t i1 = std::min(m, i0 + kBlock);
            for (std::size_t j = j0; j < j1; ++j) {
              float* brow = pb + j * m;
              for (std::size_t i = i0; i < i1; ++i) {
                brow[i] = pa[i * n + j];
              }
            }
          }
        }
      },
      std::max<std::size_t>(1, (1u << 15) / std::max<std::size_t>(1, m * kBlock)));
}

void im2col(std::span<const float> image, const Conv2dGeom& g, Tensor& cols) {
  OSP_CHECK(image.size() == g.in_channels * g.in_h * g.in_w,
            "image size mismatch");
  OSP_CHECK(g.kernel > 0 && g.stride > 0, "invalid conv geometry");
  OSP_CHECK(g.in_h + 2 * g.pad >= g.kernel && g.in_w + 2 * g.pad >= g.kernel,
            "kernel larger than padded input");
  const std::size_t oh = g.out_h(), ow = g.out_w();
  OSP_CHECK(cols.rank() == 2 && cols.dim(0) == oh * ow &&
                cols.dim(1) == g.patch_len(),
            "im2col output shape mismatch");
  const std::size_t plen = g.patch_len();
  for (std::size_t oy = 0; oy < oh; ++oy) {
    for (std::size_t ox = 0; ox < ow; ++ox) {
      float* patch = cols.raw() + (oy * ow + ox) * plen;
      std::size_t idx = 0;
      for (std::size_t ch = 0; ch < g.in_channels; ++ch) {
        const float* chan = image.data() + ch * g.in_h * g.in_w;
        for (std::size_t ky = 0; ky < g.kernel; ++ky) {
          // Signed math: padding can take coordinates negative.
          const long long iy = static_cast<long long>(oy * g.stride + ky) -
                               static_cast<long long>(g.pad);
          for (std::size_t kx = 0; kx < g.kernel; ++kx) {
            const long long ix = static_cast<long long>(ox * g.stride + kx) -
                                 static_cast<long long>(g.pad);
            if (iy < 0 || ix < 0 || iy >= static_cast<long long>(g.in_h) ||
                ix >= static_cast<long long>(g.in_w)) {
              patch[idx++] = 0.0f;
            } else {
              patch[idx++] = chan[static_cast<std::size_t>(iy) * g.in_w +
                                  static_cast<std::size_t>(ix)];
            }
          }
        }
      }
    }
  }
}

void col2im(const Tensor& cols, const Conv2dGeom& g, std::span<float> image) {
  OSP_CHECK(image.size() == g.in_channels * g.in_h * g.in_w,
            "image size mismatch");
  const std::size_t oh = g.out_h(), ow = g.out_w();
  OSP_CHECK(cols.rank() == 2 && cols.dim(0) == oh * ow &&
                cols.dim(1) == g.patch_len(),
            "col2im input shape mismatch");
  const std::size_t plen = g.patch_len();
  for (std::size_t oy = 0; oy < oh; ++oy) {
    for (std::size_t ox = 0; ox < ow; ++ox) {
      const float* patch = cols.raw() + (oy * ow + ox) * plen;
      std::size_t idx = 0;
      for (std::size_t ch = 0; ch < g.in_channels; ++ch) {
        float* chan = image.data() + ch * g.in_h * g.in_w;
        for (std::size_t ky = 0; ky < g.kernel; ++ky) {
          const long long iy = static_cast<long long>(oy * g.stride + ky) -
                               static_cast<long long>(g.pad);
          for (std::size_t kx = 0; kx < g.kernel; ++kx) {
            const long long ix = static_cast<long long>(ox * g.stride + kx) -
                                 static_cast<long long>(g.pad);
            const float v = patch[idx++];
            if (iy < 0 || ix < 0 || iy >= static_cast<long long>(g.in_h) ||
                ix >= static_cast<long long>(g.in_w)) {
              continue;
            }
            chan[static_cast<std::size_t>(iy) * g.in_w +
                 static_cast<std::size_t>(ix)] += v;
          }
        }
      }
    }
  }
}

}  // namespace osp::tensor
