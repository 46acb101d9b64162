// The panel GEMM: the one matrix-multiply kernel behind every matmul
// orientation (ops.hpp), the implicit-GEMM convolutions (conv.hpp) and the
// per-sequence products of SelfAttention.
//
//   C[m,n] = epilogue(Σ_p A[i,p]·B[p,j])
//
// A is read through two strides, A[i,p] = a[i·a_rs + p·a_cs], so a
// row-major matrix, its transpose, or a block of rows inside a larger
// matrix are all read in place; B is row-major [k,n] with leading
// dimension ldb; C is row-major with leading dimension ldc.
//
// Numerical contract: every C element is ONE accumulator that starts at +0
// and adds its k products in ascending p, each product rounded before the
// add (mul-then-add, never fused). The epilogue then stores it, adds
// bias[i] to it, or adds it to the element already in C (C + acc). The
// scalar, AVX2 and AVX-512 tiers differ only in how many j lanes one
// instruction covers, and rows never share an accumulator, so results are
// bit-identical across tiers, row tilings and thread counts. See DESIGN.md,
// "Panel GEMM".
#pragma once

#include <cstddef>

namespace osp::tensor {

enum class Epilogue {
  kStore,       // C = acc
  kAddBias,     // C = acc + bias[i]
  kAccumulate,  // C = C + acc
};

struct Panel {
  std::size_t m = 0, n = 0, k = 0;
  const float* a = nullptr;
  std::size_t a_rs = 0, a_cs = 0;
  const float* b = nullptr;
  std::size_t ldb = 0;
  float* c = nullptr;
  std::size_t ldc = 0;
  const float* bias = nullptr;  // kAddBias only
  Epilogue epi = Epilogue::kStore;
};

/// Runs the panel on the calling thread in the active util::simd tier.
void gemm(const Panel& pn);

/// Runs the panel with its rows split across the global ThreadPool (never
/// its k): the same bits as gemm() at any thread count.
void parallel_gemm(const Panel& pn);

}  // namespace osp::tensor
