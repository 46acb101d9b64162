#include "tensor/gemm.hpp"

#include <algorithm>
#include <vector>

#include "util/lanes.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace osp::tensor {

namespace {

using util::lanes::on;

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

#ifdef OSP_LANES_X86

// Register tiles are up to kMaxRows rows × one vector of j lanes.
using TileFn = void (*)(const Panel&, std::size_t i0, std::size_t j0,
                        std::size_t lanes);

template <class L, int kRows>
OSP_INLINE inline void tile(const Panel& pn, std::size_t i0, std::size_t j0,
                            std::size_t lanes) {
  const auto live = static_cast<util::lanes::Bits>((1u << lanes) - 1u);
  typename L::F acc[kRows];
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) acc[r] = L::set1(0.0f);
  const float* ap = pn.a + i0 * pn.a_rs;
  const float* bp = pn.b + j0;
  for (std::size_t p = 0; p < pn.k; ++p, ap += pn.a_cs, bp += pn.ldb) {
    const typename L::F bv = L::load(bp, live);
#pragma GCC unroll 8
    for (int r = 0; r < kRows; ++r) {
      acc[r] = L::add(acc[r], L::mul(L::set1(ap[r * pn.a_rs]), bv));
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) {
    float* cr = pn.c + (i0 + r) * pn.ldc + j0;
    typename L::F v = acc[r];
    if (pn.epi == Epilogue::kAddBias) {
      v = L::add(v, L::set1(pn.bias[i0 + r]));
    } else if (pn.epi == Epilogue::kAccumulate) {
      v = L::add(L::load(cr, live), v);
    }
    L::store(cr, v, live);
  }
}

template <class L>
constexpr TileFn kTiles[kMaxRows + 1] = {
    nullptr,           on<L, tile<L, 1>>, on<L, tile<L, 2>>,
    on<L, tile<L, 3>>, on<L, tile<L, 4>>, on<L, tile<L, 5>>,
    on<L, tile<L, 6>>, on<L, tile<L, 7>>, on<L, tile<L, 8>>};

/// Strips of L's lanes; within a strip, ⌈m/8⌉ near-equal row tiles (a
/// 10-row panel runs as 5+5, not 8+2).
template <class L>
void run_tiles(const Panel& pn) {
  const std::size_t row_tiles = (pn.m + kMaxRows - 1) / kMaxRows;
  for (std::size_t j0 = 0; j0 < pn.n; j0 += L::kWidth) {
    const std::size_t lanes = std::min(L::kWidth, pn.n - j0);
    std::size_t i0 = 0;
    for (std::size_t t = row_tiles; t > 0; --t) {
      const std::size_t rows = (pn.m - i0 + t - 1) / t;
      kTiles<L>[rows](pn, i0, j0, lanes);
      i0 += rows;
    }
  }
}

#endif  // OSP_LANES_X86

}  // namespace

void gemm(const Panel& pn) {
  if (pn.m == 0 || pn.n == 0) return;
#ifdef OSP_LANES_X86
  switch (util::simd::active_tier()) {
    case util::simd::Tier::kAvx512:
      run_tiles<util::lanes::Avx512>(pn);
      return;
    case util::simd::Tier::kAvx2:
      run_tiles<util::lanes::Avx2>(pn);
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
