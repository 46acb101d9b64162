// Micro-benchmarks (google-benchmark): tensor kernels on the hot path of
// the proxy-model training — matmul orientations (square, skewed, and the
// shapes the workloads run), implicit-GEMM conv, SelfAttention, softmax,
// and the rank-2 helpers.
//
// Besides the console table, the run writes bench_out/BENCH_micro_tensor.json
// (override the path with OSP_BENCH_JSON): one record per benchmark with
// op, shape, ns/op and GFLOP/s, so successive PRs can diff kernel
// performance mechanically. The curated copy lives at the repo top level.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "core/gib.hpp"
#include "kv/filter.hpp"
#include "kv/message.hpp"
#include "nn/attention.hpp"
#include "nn/conv2d.hpp"
#include "tensor/conv.hpp"
#include "tensor/init.hpp"
#include "tensor/ops.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace {

using osp::tensor::Conv2dGeom;
using osp::tensor::Tensor;

Tensor random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  osp::util::Rng rng(seed);
  Tensor t({r, c});
  for (float& v : t.data()) v = static_cast<float>(rng.normal());
  return t;
}

Tensor random_nchw(std::size_t n, std::size_t c, std::size_t h, std::size_t w,
                   std::uint64_t seed) {
  osp::util::Rng rng(seed);
  Tensor t({n, c, h, w});
  for (float& v : t.data()) v = static_cast<float>(rng.normal());
  return t;
}

/// Attach the per-iteration FLOP count; reported as flops/s and picked up
/// by the JSON reporter as GFLOP/s.
void set_flops(benchmark::State& state, double flops_per_iter) {
  state.counters["flops"] = benchmark::Counter(
      flops_per_iter, benchmark::Counter::kIsIterationInvariantRate);
}

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Tensor a = random_matrix(n, n, 1);
  const Tensor b = random_matrix(n, n, 2);
  Tensor c({n, n});
  for (auto _ : state) {
    osp::tensor::matmul(a, b, c);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
  set_flops(state, 2.0 * static_cast<double>(n) * n * n);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_MatmulTn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Tensor a = random_matrix(n, n, 3);
  const Tensor b = random_matrix(n, n, 4);
  Tensor c({n, n});
  for (auto _ : state) {
    osp::tensor::matmul_tn(a, b, c);
    benchmark::DoNotOptimize(c.raw());
  }
  set_flops(state, 2.0 * static_cast<double>(n) * n * n);
}
BENCHMARK(BM_MatmulTn)->Arg(64)->Arg(128)->Arg(256);

void BM_MatmulNt(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Tensor a = random_matrix(n, n, 5);
  const Tensor b = random_matrix(n, n, 6);
  Tensor c({n, n});
  for (auto _ : state) {
    osp::tensor::matmul_nt(a, b, c);
    benchmark::DoNotOptimize(c.raw());
  }
  set_flops(state, 2.0 * static_cast<double>(n) * n * n);
}
BENCHMARK(BM_MatmulNt)->Arg(64)->Arg(128)->Arg(256);

// Skewed shapes: the training hot path is full of these (batch×features by
// features×classes, attention scores, conv im2col panels). Args are m, k, n.
void BM_MatmulSkewed(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  const Tensor a = random_matrix(m, k, 11);
  const Tensor b = random_matrix(k, n, 12);
  Tensor c({m, n});
  for (auto _ : state) {
    osp::tensor::matmul(a, b, c);
    benchmark::DoNotOptimize(c.raw());
  }
  set_flops(state, 2.0 * static_cast<double>(m) * k * n);
}
BENCHMARK(BM_MatmulSkewed)
    ->Args({1024, 64, 64})    // tall-skinny: big batch, small layer
    ->Args({64, 1024, 64})    // deep reduction
    ->Args({64, 64, 1024})    // wide output
    ->Args({1, 512, 512})     // single row (vector-matrix)
    ->Args({512, 512, 1})     // single column (matrix-vector)
    ->Args({127, 129, 65});   // odd strips and row tiles

// The matmuls the workloads run, as (m, k, n) of C[m,n] = A·B in each
// orientation: the MLP head (64×72×64, 64×48×10), TinyMLP (16×48×32,
// 16×16×4) and attention (192×24×24 projections, 16×24×16 per-sequence
// products). matmul_tn reads A stored [k, m]; matmul_nt reads B stored
// [n, k].
void workload_shapes(benchmark::internal::Benchmark* b) {
  for (const auto& s : std::vector<std::vector<std::int64_t>>{
           {64, 72, 64},
           {64, 48, 10},
           {16, 48, 32},
           {16, 16, 4},
           {192, 24, 24},
           {16, 24, 16}}) {
    b->Args(s);
  }
}

enum class Orientation { kNN, kTN, kNT };

void run_workload_matmul(benchmark::State& state, Orientation o) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  const Tensor a = o == Orientation::kTN ? random_matrix(k, m, 13)
                                         : random_matrix(m, k, 13);
  const Tensor b = o == Orientation::kNT ? random_matrix(n, k, 14)
                                         : random_matrix(k, n, 14);
  Tensor c({m, n});
  for (auto _ : state) {
    switch (o) {
      case Orientation::kNN:
        osp::tensor::matmul(a, b, c);
        break;
      case Orientation::kTN:
        osp::tensor::matmul_tn(a, b, c);
        break;
      case Orientation::kNT:
        osp::tensor::matmul_nt(a, b, c);
        break;
    }
    benchmark::DoNotOptimize(c.raw());
  }
  set_flops(state, 2.0 * static_cast<double>(m) * k * n);
}

void BM_WorkloadMatmul(benchmark::State& state) {
  run_workload_matmul(state, Orientation::kNN);
}
void BM_WorkloadMatmulTn(benchmark::State& state) {
  run_workload_matmul(state, Orientation::kTN);
}
void BM_WorkloadMatmulNt(benchmark::State& state) {
  run_workload_matmul(state, Orientation::kNT);
}
BENCHMARK(BM_WorkloadMatmul)->Apply(workload_shapes);
BENCHMARK(BM_WorkloadMatmulTn)->Apply(workload_shapes);
BENCHMARK(BM_WorkloadMatmulNt)->Apply(workload_shapes);

// One SelfAttention layer of the BERTbase proxy. Args: batch, seq_len, dim.
// Forward FLOPs: four [B·L, D]·[D, D] projections plus, per sequence,
// Q·Kᵀ and A·V; backward does about twice that.
double attention_flops(std::size_t batch, std::size_t seq, std::size_t dim) {
  const double rows = static_cast<double>(batch) * seq;
  return 2.0 * rows * dim * (4.0 * dim + 2.0 * seq);
}

void BM_SelfAttentionForward(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto seq = static_cast<std::size_t>(state.range(1));
  const auto dim = static_cast<std::size_t>(state.range(2));
  osp::util::Rng rng(51);
  osp::nn::SelfAttention attn("bench", dim, rng);
  const Tensor input = random_nchw(1, batch, seq, dim, 52).reshaped(
      {batch, seq, dim});
  for (auto _ : state) {
    Tensor out = attn.forward(input, /*train=*/true);
    benchmark::DoNotOptimize(out.raw());
  }
  set_flops(state, attention_flops(batch, seq, dim));
}
BENCHMARK(BM_SelfAttentionForward)->Args({12, 16, 24});

void BM_SelfAttentionBackward(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto seq = static_cast<std::size_t>(state.range(1));
  const auto dim = static_cast<std::size_t>(state.range(2));
  osp::util::Rng rng(61);
  osp::nn::SelfAttention attn("bench", dim, rng);
  const Tensor input = random_nchw(1, batch, seq, dim, 62).reshaped(
      {batch, seq, dim});
  const Tensor grad = random_nchw(1, batch, seq, dim, 63).reshaped(
      {batch, seq, dim});
  (void)attn.forward(input, /*train=*/true);
  for (auto _ : state) {
    Tensor dx = attn.backward(grad);
    benchmark::DoNotOptimize(dx.raw());
  }
  set_flops(state, 2.0 * attention_flops(batch, seq, dim));
}
BENCHMARK(BM_SelfAttentionBackward)->Args({12, 16, 24});

// Conv-shape cases: one batched Conv2d forward/backward on each conv layer
// of the ResNet50/CIFAR10 proxy (3x3, pad 1, batch 64).
// Args: batch, in_c, out_c, side.
double conv_flops(std::size_t batch, const Conv2dGeom& g, std::size_t out_c) {
  return 2.0 * static_cast<double>(batch) * g.patches() * g.patch_len() *
         out_c;
}

void BM_ConvForward(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto in_c = static_cast<std::size_t>(state.range(1));
  const auto out_c = static_cast<std::size_t>(state.range(2));
  const auto side = static_cast<std::size_t>(state.range(3));
  osp::util::Rng rng(21);
  osp::nn::Conv2d conv("bench", in_c, out_c, side, side, 3, 1, 1, rng);
  const Tensor input = random_nchw(batch, in_c, side, side, 22);
  for (auto _ : state) {
    Tensor out = conv.forward(input, /*train=*/true);
    benchmark::DoNotOptimize(out.raw());
  }
  set_flops(state, conv_flops(batch, conv.geometry(), out_c));
}
BENCHMARK(BM_ConvForward)
    ->Args({64, 3, 10, 8})
    ->Args({64, 10, 14, 8})
    ->Args({64, 14, 18, 4})
    ->Args({64, 18, 18, 4});

/// One backward kernel alone on a proxy layer's shapes: the input gradient
/// (conv2d_backward_data, its GEMM plus the col2im-order gather) or the
/// weight and bias gradients (conv2d_backward_weight). Each does the GEMM
/// work of one forward.
void conv_backward_case(benchmark::State& state, bool data) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto in_c = static_cast<std::size_t>(state.range(1));
  const auto out_c = static_cast<std::size_t>(state.range(2));
  const auto side = static_cast<std::size_t>(state.range(3));
  const Conv2dGeom g{in_c, side, side, 3, 1, 1};
  const Tensor w = random_matrix(out_c, g.patch_len(), 31);
  const Tensor x = random_nchw(batch, in_c, side, side, 32);
  const Tensor grad = random_nchw(batch, out_c, side, side, 33);
  Tensor dx(x.shape()), wgrad({out_c, g.patch_len()}), bgrad({out_c});
  for (auto _ : state) {
    if (data) {
      osp::tensor::conv2d_backward_data(grad.raw(), w.raw(), g, out_c, batch,
                                        dx.raw());
      benchmark::DoNotOptimize(dx.raw());
    } else {
      osp::tensor::conv2d_backward_weight(grad.raw(), x.raw(), g, out_c,
                                          batch, wgrad.raw(), bgrad.raw());
      benchmark::DoNotOptimize(wgrad.raw());
    }
    benchmark::ClobberMemory();
  }
  set_flops(state, conv_flops(batch, g, out_c));
}

void BM_ConvBackwardData(benchmark::State& state) {
  conv_backward_case(state, /*data=*/true);
}
BENCHMARK(BM_ConvBackwardData)
    ->Args({64, 3, 10, 8})
    ->Args({64, 10, 14, 8})
    ->Args({64, 14, 18, 4})
    ->Args({64, 18, 18, 4});

void BM_ConvBackwardWeight(benchmark::State& state) {
  conv_backward_case(state, /*data=*/false);
}
BENCHMARK(BM_ConvBackwardWeight)
    ->Args({64, 3, 10, 8})
    ->Args({64, 10, 14, 8})
    ->Args({64, 14, 18, 4})
    ->Args({64, 18, 18, 4});

void BM_SoftmaxRows(benchmark::State& state) {
  const auto cols = static_cast<std::size_t>(state.range(0));
  const Tensor x = random_matrix(64, cols, 8);
  Tensor out({64, cols});
  for (auto _ : state) {
    osp::tensor::softmax_rows(x, out);
    benchmark::DoNotOptimize(out.raw());
  }
}
BENCHMARK(BM_SoftmaxRows)->Arg(10)->Arg(100)->Arg(1000);

void BM_Transpose(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Tensor a = random_matrix(n, n, 9);
  Tensor b({n, n});
  for (auto _ : state) {
    osp::tensor::transpose(a, b);
    benchmark::DoNotOptimize(b.raw());
  }
}
BENCHMARK(BM_Transpose)->Arg(128)->Arg(512);

void BM_SumRows(benchmark::State& state) {
  const auto cols = static_cast<std::size_t>(state.range(0));
  const Tensor x = random_matrix(64, cols, 10);
  std::vector<float> out(cols, 0.0f);
  for (auto _ : state) {
    osp::tensor::sum_rows(x, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_SumRows)->Arg(256)->Arg(4096);

// ---------------------------------------------------------------------------
// Gradient wire-path kernels (PR 7). Each benchmark times the dispatched
// SIMD kernel in the usual google-benchmark loop AND attaches a
// `speedup_vs_seed` counter: min-of-reps timing of the seed scalar
// implementation (reproduced locally, compiled at the same baseline -O3)
// against the dispatched kernel, measured back-to-back in this process.
// The ratio compares two measurements taken under identical noise, so CI
// can gate on it deterministically the way the rate-solver visit ratio is
// gated. A `simd_tier` counter records which tier ran (0=scalar .. 3=avx512).
// ---------------------------------------------------------------------------

std::vector<float> random_grad(std::size_t n, std::uint64_t seed) {
  osp::util::Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal());
  return v;
}

/// Wall time of a 16-call batch of fn(); the batch amortizes timer
/// overhead.
template <typename F>
double batch_seconds(const F& fn) {
  constexpr int kBatch = 16;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kBatch; ++i) fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Best-of-reps batch time — the min over reps filters scheduler noise.
template <typename F>
double best_seconds(const F& fn, int reps = 9) {
  fn();  // warm-up
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) best = std::min(best, batch_seconds(fn));
  return best;
}

/// best_seconds of two passes with their batches alternating, so a burst
/// of host noise lands on both sides rather than on one side's window.
template <typename F, typename G>
std::pair<double, double> best_seconds_paired(const F& a, const G& b,
                                              int reps) {
  a();  // warm-up
  b();
  double best_a = std::numeric_limits<double>::infinity();
  double best_b = best_a;
  for (int r = 0; r < reps; ++r) {
    best_a = std::min(best_a, batch_seconds(a));
    best_b = std::min(best_b, batch_seconds(b));
  }
  return {best_a, best_b};
}

void set_wire_counters(benchmark::State& state, double seed_s, double simd_s) {
  state.counters["speedup_vs_seed"] = benchmark::Counter(seed_s / simd_s);
  state.counters["simd_tier"] = benchmark::Counter(
      static_cast<double>(osp::util::simd::active_tier()));
}

void BM_WireQuantizeInt8(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<float> src = random_grad(n, 41);
  std::vector<float> buf(n);
  const auto& k = osp::util::simd::kernels();

  // Seed implementation: scalar max-abs scan + round/clamp loop.
  const auto seed_pass = [&] {
    std::copy(src.begin(), src.end(), buf.begin());
    float max_abs = 0.0f;
    for (float v : buf) max_abs = std::max(max_abs, std::fabs(v));
    const float scale = max_abs / 127.0f;
    const float inv = 1.0f / scale;
    for (float& v : buf) {
      const float q = std::round(std::clamp(v * inv, -127.0f, 127.0f));
      v = q * scale;
    }
    benchmark::DoNotOptimize(buf.data());
  };
  const auto simd_pass = [&] {
    std::copy(src.begin(), src.end(), buf.begin());
    const float max_abs = k.max_abs(buf.data(), n);
    const float scale = max_abs / 127.0f;
    k.quantize_dequantize(buf.data(), scale, 1.0f / scale, n);
    benchmark::DoNotOptimize(buf.data());
  };
  const double seed_s = best_seconds(seed_pass);
  const double simd_s = best_seconds(simd_pass);
  for (auto _ : state) simd_pass();
  set_wire_counters(state, seed_s, simd_s);
}
BENCHMARK(BM_WireQuantizeInt8)->Arg(16384)->Arg(262144);

void BM_WireTopKThreshold(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<float> src = random_grad(n, 42);
  std::vector<float> buf(n);
  std::vector<float> mags(n);
  const float threshold = 1.0f;  // ~keep 32% of a standard normal
  const std::size_t tie_slots = 16;
  const auto& k = osp::util::simd::kernels();

  // Seed implementation: the Top-K scan passes from sparsify() — count
  // strictly-above, then the branchy zeroing pass with tie handling
  // (data-dependent branches at a ~32% keep rate mispredict heavily).
  std::size_t sink = 0;
  const auto seed_pass = [&] {
    std::copy(src.begin(), src.end(), buf.begin());
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (std::fabs(buf[i]) > threshold) ++kept;
    }
    std::size_t slots = tie_slots;
    for (std::size_t i = 0; i < n; ++i) {
      const float m = std::fabs(buf[i]);
      if (m > threshold) {
        ++kept;
      } else if (m == threshold && slots > 0) {
        --slots;
        ++kept;
      } else {
        buf[i] = 0.0f;
      }
    }
    sink += kept;
    benchmark::DoNotOptimize(buf.data());
    benchmark::DoNotOptimize(sink);
  };
  const auto simd_pass = [&] {
    std::copy(src.begin(), src.end(), buf.begin());
    k.abs_into(buf.data(), mags.data(), n);
    sink += k.count_gt(mags.data(), threshold, n);
    sink += k.threshold_zero(buf.data(), mags.data(), threshold, tie_slots, n);
    benchmark::DoNotOptimize(buf.data());
    benchmark::DoNotOptimize(sink);
  };
  const double seed_s = best_seconds(seed_pass);
  const double simd_s = best_seconds(simd_pass);
  for (auto _ : state) simd_pass();
  set_wire_counters(state, seed_s, simd_s);
}
BENCHMARK(BM_WireTopKThreshold)->Arg(65536);

/// The Top-K stage of a KvBSP push: sparsify plus the index scan of
/// TopKFilter::encode. Args are {numel, leading zeros}: kv-chaos pushes
/// TinyMLP's 2 164 gradient values, and GIB's drop of fc0.weight clears
/// the first 1 536 of them; {2164, 0} is the same push dense.
void BM_WireTopKEncode(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto zeroed = static_cast<std::size_t>(state.range(1));
  constexpr double kKeep = 0.25;
  std::vector<float> src = random_grad(n, 49);
  std::fill(src.begin(), src.begin() + static_cast<std::ptrdiff_t>(zeroed),
            0.0f);
  const auto& k = osp::util::simd::kernels();

  // Seed implementation: a full-array nth_element for the threshold, then
  // a push_back index loop. Its scan passes use today's kernels; on these
  // payloads the only threshold tie is the threshold element itself, so
  // the tie-budget rule does not engage and the ratio credits only the
  // positive-only selection and the index kernel.
  std::vector<float> buf(n);
  std::vector<float> mags(n);
  std::vector<float> sel(n);
  std::vector<std::uint32_t> indices;
  const auto keep = static_cast<std::size_t>(
      std::llround(kKeep * static_cast<double>(n)));
  const auto seed_pass = [&] {
    std::copy(src.begin(), src.end(), buf.begin());
    k.abs_into(buf.data(), mags.data(), n);
    std::copy(mags.begin(), mags.end(), sel.begin());
    std::nth_element(sel.begin(),
                     sel.begin() + static_cast<std::ptrdiff_t>(keep - 1),
                     sel.end(), std::greater<float>());
    const float threshold = sel[keep - 1];
    const std::size_t above = k.count_gt(mags.data(), threshold, n);
    (void)k.threshold_zero(buf.data(), mags.data(), threshold, keep - above,
                           n);
    indices.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (buf[i] != 0.0f) indices.push_back(static_cast<std::uint32_t>(i));
    }
    benchmark::DoNotOptimize(indices.data());
    benchmark::ClobberMemory();
  };
  osp::kv::TopKFilter filter(osp::kv::CompressionMode::TopK, kKeep, 1);
  osp::kv::KvMessage m;
  const auto simd_pass = [&] {
    m.values.assign(src.begin(), src.end());
    filter.encode(m);
    benchmark::DoNotOptimize(m.indices.data());
    benchmark::ClobberMemory();
  };
  // A pass takes microseconds: alternate many short batches.
  const auto [seed_s, simd_s] = best_seconds_paired(seed_pass, simd_pass, 101);
  for (auto _ : state) simd_pass();
  set_wire_counters(state, seed_s, simd_s);
}
BENCHMARK(BM_WireTopKEncode)->Args({2164, 1536})->Args({2164, 0});

void BM_WireGibPack(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  osp::util::Rng rng(43);
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = rng.bernoulli(0.5) ? 1 : 0;
  std::vector<std::uint8_t> bits((n + 7) / 8, 0);
  const auto& k = osp::util::simd::kernels();

  // Seed implementation: per-bit OR loop from Gib::serialize.
  const auto seed_pass = [&] {
    std::fill(bits.begin(), bits.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (bytes[i] != 0) {
        bits[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
      }
    }
    benchmark::DoNotOptimize(bits.data());
  };
  const auto simd_pass = [&] {
    k.pack_bits(bytes.data(), bits.data(), n);
    benchmark::DoNotOptimize(bits.data());
  };
  const double seed_s = best_seconds(seed_pass);
  const double simd_s = best_seconds(simd_pass);
  for (auto _ : state) simd_pass();
  set_wire_counters(state, seed_s, simd_s);
}
BENCHMARK(BM_WireGibPack)->Arg(65536);

void BM_WireGibUnpack(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  osp::util::Rng rng(44);
  std::vector<std::uint8_t> bits((n + 7) / 8);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.next_u64());
  std::vector<std::uint8_t> bytes(n, 0);
  const auto& k = osp::util::simd::kernels();

  // Seed implementation: per-bit shift/test loop from Gib::deserialize.
  const auto seed_pass = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      bytes[i] = static_cast<std::uint8_t>((bits[i / 8] >> (i % 8)) & 1u);
    }
    benchmark::DoNotOptimize(bytes.data());
  };
  const auto simd_pass = [&] {
    k.unpack_bits(bits.data(), bytes.data(), n);
    benchmark::DoNotOptimize(bytes.data());
  };
  const double seed_s = best_seconds(seed_pass);
  const double simd_s = best_seconds(simd_pass);
  for (auto _ : state) simd_pass();
  set_wire_counters(state, seed_s, simd_s);
}
BENCHMARK(BM_WireGibUnpack)->Arg(65536);

void BM_WireAbsProdSum(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<float> a = random_grad(n, 45);
  const std::vector<float> b = random_grad(n, 46);
  const auto& k = osp::util::simd::kernels();

  // Seed implementation: the serial double accumulation chain (PGP Eq. 4).
  double sink = 0.0;
  const auto seed_pass = [&] {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      s += std::abs(static_cast<double>(a[i]) * static_cast<double>(b[i]));
    }
    sink += s;
    benchmark::DoNotOptimize(sink);
  };
  const auto simd_pass = [&] {
    sink += k.abs_prod_sum(a.data(), b.data(), n);
    benchmark::DoNotOptimize(sink);
  };
  const double seed_s = best_seconds(seed_pass);
  const double simd_s = best_seconds(simd_pass);
  for (auto _ : state) simd_pass();
  set_flops(state, 2.0 * static_cast<double>(n));
  set_wire_counters(state, seed_s, simd_s);
}
BENCHMARK(BM_WireAbsProdSum)->Arg(262144);

void BM_WireAxpy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<float> x = random_grad(n, 47);
  std::vector<float> y = random_grad(n, 48);
  const auto& k = osp::util::simd::kernels();

  const auto seed_pass = [&] {
    for (std::size_t i = 0; i < n; ++i) y[i] += 0.25f * x[i];
    benchmark::DoNotOptimize(y.data());
  };
  const auto simd_pass = [&] {
    k.axpy(0.25f, x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
  };
  const double seed_s = best_seconds(seed_pass);
  const double simd_s = best_seconds(simd_pass);
  for (auto _ : state) simd_pass();
  set_flops(state, 2.0 * static_cast<double>(n));
  set_wire_counters(state, seed_s, simd_s);
}
BENCHMARK(BM_WireAxpy)->Arg(262144);

}  // namespace

int main(int argc, char** argv) {
  // always_emit_gflops keeps the historical record shape: every tensor
  // record carries a gflops field even when the op reports no FLOPs.
  return osp::bench::run_benchmarks_with_json(
      argc, argv, "bench_out/BENCH_micro_tensor.json",
      /*always_emit_gflops=*/true);
}
