#include "util/vec_math.hpp"

#include <cstring>

#include "util/check.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace osp::util {

namespace {

// Elementwise kernels run in parallel once a block is large enough that the
// pool handoff is amortized; below the threshold they run inline. The split
// never changes results (every element is computed independently).
constexpr std::size_t kElemwiseGrain = 1 << 16;

// Reductions are chunked into fixed-size partials summed in chunk order, so
// the result is deterministic and independent of the pool size. The chunk
// grouping does reassociate the double accumulation, so the threshold is
// set high: blocks below ~1M elements (every proxy-model layer block)
// reduce serially and keep their bit pattern.
constexpr std::size_t kReduceParallelMin = 1 << 20;
constexpr std::size_t kReduceChunk = 1 << 18;

/// Deterministic parallel reduction: partial[i] covers the fixed range
/// [i*kReduceChunk, ...); partials are combined in index order. Each chunk
/// runs the dispatched kernel's 8-lane accumulation tree based at the chunk
/// start, so the result is also independent of the pool size and the tier.
template <typename PartialFn>
double chunked_reduce(std::size_t n, const PartialFn& partial) {
  const std::size_t num_chunks = (n + kReduceChunk - 1) / kReduceChunk;
  std::vector<double> partials(num_chunks, 0.0);
  ThreadPool::global().parallel_for(
      num_chunks,
      [&](std::size_t c0, std::size_t c1) {
        for (std::size_t c = c0; c < c1; ++c) {
          const std::size_t begin = c * kReduceChunk;
          const std::size_t end = std::min(n, begin + kReduceChunk);
          partials[c] = partial(begin, end);
        }
      },
      1);
  double s = 0.0;
  for (double p : partials) s += p;
  return s;
}

}  // namespace

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  OSP_CHECK(x.size() == y.size(), "axpy size mismatch");
  const simd::Kernels& k = simd::kernels();
  const float* px = x.data();
  float* py = y.data();
  ThreadPool::global().parallel_for(
      x.size(),
      [&](std::size_t b, std::size_t e) { k.axpy(alpha, px + b, py + b, e - b); },
      kElemwiseGrain);
}

void scale(std::span<float> x, float alpha) {
  const simd::Kernels& k = simd::kernels();
  float* px = x.data();
  ThreadPool::global().parallel_for(
      x.size(),
      [&](std::size_t b, std::size_t e) { k.scale(px + b, alpha, e - b); },
      kElemwiseGrain);
}

void copy(std::span<const float> src, std::span<float> dst) {
  OSP_CHECK(src.size() == dst.size(), "copy size mismatch");
  if (!src.empty()) {
    std::memcpy(dst.data(), src.data(), src.size() * sizeof(float));
  }
}

void fill(std::span<float> x, float value) {
  for (float& v : x) v = value;
}

double abs_prod_sum(std::span<const float> a, std::span<const float> b) {
  OSP_CHECK(a.size() == b.size(), "abs_prod_sum size mismatch");
  const simd::Kernels& k = simd::kernels();
  const std::size_t n = a.size();
  const float* pa = a.data();
  const float* pb = b.data();
  const auto range = [&](std::size_t begin, std::size_t end) {
    return k.abs_prod_sum(pa + begin, pb + begin, end - begin);
  };
  if (n < kReduceParallelMin) return range(0, n);
  return chunked_reduce(n, range);
}

double l1_norm(std::span<const float> x) {
  const simd::Kernels& k = simd::kernels();
  const std::size_t n = x.size();
  const float* px = x.data();
  const auto range = [&](std::size_t begin, std::size_t end) {
    return k.l1(px + begin, end - begin);
  };
  if (n < kReduceParallelMin) return range(0, n);
  return chunked_reduce(n, range);
}

void sub(std::span<const float> a, std::span<const float> b,
         std::span<float> dst) {
  OSP_CHECK(a.size() == b.size() && a.size() == dst.size(),
            "sub size mismatch");
  const simd::Kernels& k = simd::kernels();
  const float* pa = a.data();
  const float* pb = b.data();
  float* pd = dst.data();
  ThreadPool::global().parallel_for(
      a.size(),
      [&](std::size_t begin, std::size_t end) {
        k.sub(pa + begin, pb + begin, pd + begin, end - begin);
      },
      kElemwiseGrain);
}

void add(std::span<const float> a, std::span<const float> b,
         std::span<float> dst) {
  OSP_CHECK(a.size() == b.size() && a.size() == dst.size(),
            "add size mismatch");
  const simd::Kernels& k = simd::kernels();
  const float* pa = a.data();
  const float* pb = b.data();
  float* pd = dst.data();
  ThreadPool::global().parallel_for(
      a.size(),
      [&](std::size_t begin, std::size_t end) {
        k.add(pa + begin, pb + begin, pd + begin, end - begin);
      },
      kElemwiseGrain);
}

}  // namespace osp::util
