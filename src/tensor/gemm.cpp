#include "tensor/gemm.hpp"

#include <algorithm>
#include <vector>

#include "util/simd.hpp"
#include "util/thread_pool.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define OSP_GEMM_X86 1
#endif

namespace osp::tensor {

namespace {

// Rows per register tile at most, and per unit of parallel_gemm's split.
// With the multiply and the add issued separately, four or more
// independent rows hide the add latency.
constexpr std::size_t kMaxRows = 8;

// Splitting a panel across the pool costs more than it saves below this.
constexpr std::size_t kMinFlopsPerChunk = 262144;

void panel_scalar(const Panel& pn) {
  thread_local std::vector<float> row;
  row.resize(pn.n);
  float* acc = row.data();
  for (std::size_t i = 0; i < pn.m; ++i) {
    std::fill(acc, acc + pn.n, 0.0f);
    const float* ai = pn.a + i * pn.a_rs;
    for (std::size_t p = 0; p < pn.k; ++p) {
      const float av = ai[p * pn.a_cs];
      const float* bp = pn.b + p * pn.ldb;
      for (std::size_t j = 0; j < pn.n; ++j) acc[j] += av * bp[j];
    }
    float* ci = pn.c + i * pn.ldc;
    if (pn.epi == Epilogue::kAddBias) {
      const float bv = pn.bias[i];
      for (std::size_t j = 0; j < pn.n; ++j) ci[j] = acc[j] + bv;
    } else if (pn.epi == Epilogue::kAccumulate) {
      for (std::size_t j = 0; j < pn.n; ++j) ci[j] += acc[j];
    } else {
      std::copy(acc, acc + pn.n, ci);
    }
  }
}

#ifdef OSP_GEMM_X86

// Register tiles are up to kMaxRows rows × one vector of j lanes.
using TileFn = void (*)(const Panel&, std::size_t i0, std::size_t j0,
                        std::size_t lanes);

template <int kRows>
__attribute__((target("avx2"))) void tile_avx2(const Panel& pn,
                                               std::size_t i0, std::size_t j0,
                                               std::size_t lanes) {
  const __m256i mask =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(lanes)),
                         _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  __m256 acc[kRows];
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) acc[r] = _mm256_setzero_ps();
  const float* ap = pn.a + i0 * pn.a_rs;
  const float* bp = pn.b + j0;
  for (std::size_t p = 0; p < pn.k; ++p, ap += pn.a_cs, bp += pn.ldb) {
    const __m256 bv = _mm256_maskload_ps(bp, mask);
#pragma GCC unroll 8
    for (int r = 0; r < kRows; ++r) {
      const __m256 av = _mm256_broadcast_ss(ap + r * pn.a_rs);
      acc[r] = _mm256_add_ps(acc[r], _mm256_mul_ps(av, bv));
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) {
    float* cr = pn.c + (i0 + r) * pn.ldc + j0;
    __m256 v = acc[r];
    if (pn.epi == Epilogue::kAddBias) {
      v = _mm256_add_ps(v, _mm256_broadcast_ss(pn.bias + i0 + r));
    } else if (pn.epi == Epilogue::kAccumulate) {
      v = _mm256_add_ps(_mm256_maskload_ps(cr, mask), v);
    }
    _mm256_maskstore_ps(cr, mask, v);
  }
}

template <int kRows>
__attribute__((target("avx512f"))) void tile_avx512(const Panel& pn,
                                                   std::size_t i0,
                                                   std::size_t j0,
                                                   std::size_t lanes) {
  const auto mask = static_cast<__mmask16>((1u << lanes) - 1u);
  __m512 acc[kRows];
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) acc[r] = _mm512_setzero_ps();
  const float* ap = pn.a + i0 * pn.a_rs;
  const float* bp = pn.b + j0;
  for (std::size_t p = 0; p < pn.k; ++p, ap += pn.a_cs, bp += pn.ldb) {
    const __m512 bv = _mm512_maskz_loadu_ps(mask, bp);
#pragma GCC unroll 8
    for (int r = 0; r < kRows; ++r) {
      const __m512 av = _mm512_set1_ps(ap[r * pn.a_rs]);
      acc[r] = _mm512_add_ps(acc[r], _mm512_mul_ps(av, bv));
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) {
    float* cr = pn.c + (i0 + r) * pn.ldc + j0;
    __m512 v = acc[r];
    if (pn.epi == Epilogue::kAddBias) {
      v = _mm512_add_ps(v, _mm512_set1_ps(pn.bias[i0 + r]));
    } else if (pn.epi == Epilogue::kAccumulate) {
      v = _mm512_add_ps(_mm512_maskz_loadu_ps(mask, cr), v);
    }
    _mm512_mask_storeu_ps(cr, mask, v);
  }
}

constexpr TileFn kAvx2Tiles[kMaxRows + 1] = {
    nullptr,      tile_avx2<1>, tile_avx2<2>, tile_avx2<3>, tile_avx2<4>,
    tile_avx2<5>, tile_avx2<6>, tile_avx2<7>, tile_avx2<8>};
constexpr TileFn kAvx512Tiles[kMaxRows + 1] = {
    nullptr,        tile_avx512<1>, tile_avx512<2>,
    tile_avx512<3>, tile_avx512<4>, tile_avx512<5>,
    tile_avx512<6>, tile_avx512<7>, tile_avx512<8>};

/// Strips of `width` lanes; within a strip, ⌈m/8⌉ near-equal row tiles (a
/// 10-row panel runs as 5+5, not 8+2).
void run_tiles(const Panel& pn, std::size_t width, const TileFn* tiles) {
  const std::size_t row_tiles = (pn.m + kMaxRows - 1) / kMaxRows;
  for (std::size_t j0 = 0; j0 < pn.n; j0 += width) {
    const std::size_t lanes = std::min(width, pn.n - j0);
    std::size_t i0 = 0;
    for (std::size_t t = row_tiles; t > 0; --t) {
      const std::size_t rows = (pn.m - i0 + t - 1) / t;
      tiles[rows](pn, i0, j0, lanes);
      i0 += rows;
    }
  }
}

#endif  // OSP_GEMM_X86

}  // namespace

void gemm(const Panel& pn) {
  if (pn.m == 0 || pn.n == 0) return;
#ifdef OSP_GEMM_X86
  switch (util::simd::active_tier()) {
    case util::simd::Tier::kAvx512:
      run_tiles(pn, 16, kAvx512Tiles);
      return;
    case util::simd::Tier::kAvx2:
      run_tiles(pn, 8, kAvx2Tiles);
      return;
    case util::simd::Tier::kScalar:
      break;
  }
#endif
  panel_scalar(pn);
}

void parallel_gemm(const Panel& pn) {
  const std::size_t blocks = (pn.m + kMaxRows - 1) / kMaxRows;
  const std::size_t block_flops = 2 * kMaxRows * pn.k * pn.n + 1;
  util::ThreadPool::global().parallel_for(
      blocks,
      [&](std::size_t b0, std::size_t b1) {
        Panel rows = pn;
        const std::size_t i0 = b0 * kMaxRows;
        rows.m = std::min(pn.m, b1 * kMaxRows) - i0;
        rows.a += i0 * pn.a_rs;
        rows.c += i0 * pn.ldc;
        if (rows.bias != nullptr) rows.bias += i0;
        gemm(rows);
      },
      std::max<std::size_t>(1, kMinFlopsPerChunk / block_flops));
}

}  // namespace osp::tensor
