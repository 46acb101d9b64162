#include "tensor/gemm.hpp"

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "util/lanes.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace osp::tensor {

namespace {

using util::lanes::Bits;
using util::lanes::on;

// Rows per unit of parallel_gemm's split.
constexpr std::size_t kRowBlock = 8;

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

// Register tiles are R rows × V vectors of j lanes, the last vector masked
// to `last`. Each k step loads V vectors of B and broadcasts R values of A
// into R·V independent accumulators.
constexpr std::size_t kMaxVecs = 4;
constexpr std::size_t kMaxRows = 12;

/// Rows per tile at most, by vectors per tile (index V): R·V accumulators,
/// V B vectors and one broadcast fit the tier's registers (32 zmm, 16 ymm).
template <class L>
constexpr std::size_t kRowCap[kMaxVecs + 1] = {0, 12, 12, 8, 6};
template <>
constexpr std::size_t kRowCap<util::lanes::Avx2>[kMaxVecs + 1] = {0, 12, 6, 4,
                                                                   3};

using TileFn = void (*)(const Panel&, std::size_t i0, std::size_t j0,
                        Bits last);

template <class L, int kRows, int kVecs>
OSP_INLINE inline void tile(const Panel& pn, std::size_t i0, std::size_t j0,
                            Bits last) {
  using F = typename L::F;
  constexpr std::size_t kW = L::kWidth;
  constexpr Bits kFull = Bits((1ull << kW) - 1u);
  F acc[kRows][kVecs];
#pragma GCC unroll 12
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < kVecs; ++v) acc[r][v] = L::set1(0.0f);
  }
  const float* ap = pn.a + i0 * pn.a_rs;
  const float* bp = pn.b + j0;
  for (std::size_t p = 0; p < pn.k; ++p, ap += pn.a_cs, bp += pn.ldb) {
    F bv[kVecs];
#pragma GCC unroll 4
    for (int v = 0; v + 1 < kVecs; ++v) bv[v] = L::load(bp + v * kW);
    bv[kVecs - 1] = L::load(bp + (kVecs - 1) * kW, last);
#pragma GCC unroll 12
    for (int r = 0; r < kRows; ++r) {
      const F av = L::set1(ap[r * pn.a_rs]);
#pragma GCC unroll 4
      for (int v = 0; v < kVecs; ++v) {
        acc[r][v] = L::add(acc[r][v], L::mul(av, bv[v]));
      }
    }
  }
#pragma GCC unroll 12
  for (int r = 0; r < kRows; ++r) {
    float* cr = pn.c + (i0 + r) * pn.ldc + j0;
#pragma GCC unroll 4
    for (int v = 0; v < kVecs; ++v) {
      const Bits live = v + 1 < kVecs ? kFull : last;
      F out = acc[r][v];
      if (pn.epi == Epilogue::kAddBias) {
        out = L::add(out, L::set1(pn.bias[i0 + r]));
      } else if (pn.epi == Epilogue::kAccumulate) {
        out = L::add(L::load(cr + v * kW, live), out);
      }
      L::store(cr + v * kW, out, live);
    }
  }
}

/// Tiles of kVecs vectors, indexed by rows (1 … the tier's cap).
template <class L, int kVecs, std::size_t... kR>
constexpr std::array<TileFn, kMaxRows + 1> row_tiles(
    std::index_sequence<kR...>) {
  return {nullptr, on<L, tile<L, int(kR) + 1, kVecs>>...};
}

template <class L, int kVecs>
constexpr auto kRowTiles =
    row_tiles<L, kVecs>(std::make_index_sequence<kRowCap<L>[kVecs]>{});

/// ⌈m/cap⌉ near-equal row tiles of kVecs vectors at column j0, with
/// cap = kRowCap<L>[kVecs] (10 rows run as one tile of one vector, as 5+5
/// of four).
template <class L, int kVecs>
void run_rows(const Panel& pn, std::size_t j0, Bits last) {
  constexpr std::size_t kCap = kRowCap<L>[kVecs];
  std::size_t i0 = 0;
  for (std::size_t t = (pn.m + kCap - 1) / kCap; t > 0; --t) {
    const std::size_t rows = t == 1 ? pn.m - i0 : (pn.m - i0 + t - 1) / t;
    kRowTiles<L, kVecs>[rows](pn, i0, j0, last);
    i0 += rows;
  }
}

/// The panel's ⌈n/W⌉ vectors of W = L::kWidth lanes run in ⌈vectors/4⌉
/// near-equal groups (5 vectors as 3+2), each group in row tiles.
template <class L>
void run_tiles(const Panel& pn) {
  constexpr std::size_t kW = L::kWidth;
  if (pn.n <= kW) {  // one vector: no group plan
    run_rows<L, 1>(pn, 0, Bits((1ull << pn.n) - 1u));
    return;
  }
  const std::size_t vecs = (pn.n + kW - 1) / kW;
  std::size_t v0 = 0;
  for (std::size_t g = (vecs + kMaxVecs - 1) / kMaxVecs; g > 0; --g) {
    const std::size_t nv = g == 1 ? vecs - v0 : (vecs - v0 + g - 1) / g;
    const std::size_t j0 = v0 * kW;
    const std::size_t tail = std::min(kW, pn.n - (j0 + (nv - 1) * kW));
    const auto last = Bits((1ull << tail) - 1u);
    switch (nv) {
      case 1: run_rows<L, 1>(pn, j0, last); break;
      case 2: run_rows<L, 2>(pn, j0, last); break;
      case 3: run_rows<L, 3>(pn, j0, last); break;
      default: run_rows<L, 4>(pn, j0, last); break;
    }
    v0 += nv;
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
  const std::size_t blocks = (pn.m + kRowBlock - 1) / kRowBlock;
  const std::size_t block_flops = 2 * kRowBlock * pn.k * pn.n + 1;
  util::ThreadPool::global().parallel_for(
      blocks,
      [&](std::size_t b0, std::size_t b1) {
        Panel rows = pn;
        const std::size_t i0 = b0 * kRowBlock;
        rows.m = std::min(pn.m, b1 * kRowBlock) - i0;
        rows.a += i0 * pn.a_rs;
        rows.c += i0 * pn.ldc;
        if (rows.bias != nullptr) rows.bias += i0;
        gemm(rows);
      },
      std::max<std::size_t>(1, kMinFlopsPerChunk / block_flops));
}

}  // namespace osp::tensor
