// Gradient-correctness tests: every layer's backward() is verified against
// central finite differences of its forward(), for both input gradients and
// parameter gradients. A weighted-sum readout makes the scalar loss.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

#include "nn/activations.hpp"
#include "nn/attention.hpp"
#include "nn/conv2d.hpp"
#include "nn/embedding.hpp"
#include "nn/linear.hpp"
#include "nn/norm.hpp"
#include "nn/sequential.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace osp::nn {
namespace {

using tensor::Tensor;

/// Scalar readout L = Σ w_i · out_i with fixed random weights.
struct Readout {
  std::vector<float> w;

  explicit Readout(std::size_t n, util::Rng& rng) {
    w.resize(n);
    for (float& v : w) v = static_cast<float>(rng.normal());
  }

  [[nodiscard]] double value(const Tensor& out) const {
    double s = 0.0;
    for (std::size_t i = 0; i < out.numel(); ++i) s += w[i] * out[i];
    return s;
  }

  [[nodiscard]] Tensor grad(const tensor::Shape& shape) const {
    Tensor g(shape);
    for (std::size_t i = 0; i < g.numel(); ++i) g[i] = w[i];
    return g;
  }
};

/// Verifies input and parameter gradients of `layer` at `input`.
/// `spot_checks` bounds how many elements are probed per tensor.
void check_layer_gradients(Layer& layer, const Tensor& input,
                           std::size_t spot_checks = 24,
                           float eps = 1e-2f, float tol = 2e-2f) {
  util::Rng rng(99);
  Tensor out = layer.forward(input, true);
  Readout readout(out.numel(), rng);
  layer.zero_grad();
  // Re-run forward so caches match the probe points exactly.
  out = layer.forward(input, true);
  const Tensor gin = layer.backward(readout.grad(out.shape()));

  // Input gradient spot checks.
  Tensor probe = input;
  const std::size_t in_stride =
      std::max<std::size_t>(1, input.numel() / spot_checks);
  for (std::size_t i = 0; i < input.numel(); i += in_stride) {
    const float saved = probe[i];
    probe[i] = saved + eps;
    const double up = readout.value(layer.forward(probe, true));
    probe[i] = saved - eps;
    const double down = readout.value(layer.forward(probe, true));
    probe[i] = saved;
    const double fd = (up - down) / (2.0 * eps);
    EXPECT_NEAR(gin[i], fd, tol * std::max(1.0, std::abs(fd)))
        << layer.name() << " input grad at " << i;
  }

  // Parameter gradient spot checks. Recompute analytic grads first (the
  // probes above clobbered the caches).
  layer.zero_grad();
  (void)layer.forward(input, true);
  (void)layer.backward(readout.grad(out.shape()));
  for (ParamRef& p : layer.params()) {
    std::vector<float> analytic(p.grad->data().begin(),
                                p.grad->data().end());
    const std::size_t stride =
        std::max<std::size_t>(1, p.numel() / spot_checks);
    for (std::size_t i = 0; i < p.numel(); i += stride) {
      const float saved = (*p.value)[i];
      (*p.value)[i] = saved + eps;
      const double up = readout.value(layer.forward(input, true));
      (*p.value)[i] = saved - eps;
      const double down = readout.value(layer.forward(input, true));
      (*p.value)[i] = saved;
      const double fd = (up - down) / (2.0 * eps);
      EXPECT_NEAR(analytic[i], fd, tol * std::max(1.0, std::abs(fd)))
          << layer.name() << " param " << p.name << " grad at " << i;
    }
  }
}

Tensor random_input(tensor::Shape shape, util::Rng& rng,
                    double scale = 1.0) {
  Tensor t(std::move(shape));
  for (float& v : t.data()) v = static_cast<float>(rng.normal() * scale);
  return t;
}

TEST(LinearLayer, GradientsMatchFiniteDifference) {
  util::Rng rng(1);
  Linear layer("fc", 6, 4, rng);
  check_layer_gradients(layer, random_input({3, 6}, rng));
}

TEST(LinearLayer, NoBiasVariant) {
  util::Rng rng(2);
  Linear layer("fc", 5, 3, rng, /*bias=*/false);
  EXPECT_EQ(layer.params().size(), 1u);
  check_layer_gradients(layer, random_input({2, 5}, rng));
}

TEST(LinearLayer, ForwardMatchesManual) {
  util::Rng rng(3);
  Linear layer("fc", 2, 2, rng);
  auto params = layer.params();
  // W = [[1,2],[3,4]], b = [10, 20]
  (*params[0].value)[0] = 1.0f;
  (*params[0].value)[1] = 2.0f;
  (*params[0].value)[2] = 3.0f;
  (*params[0].value)[3] = 4.0f;
  (*params[1].value)[0] = 10.0f;
  (*params[1].value)[1] = 20.0f;
  Tensor x({1, 2});
  x.at(0, 0) = 1.0f;
  x.at(0, 1) = 1.0f;
  const Tensor y = layer.forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 13.0f);  // 1+2+10
  EXPECT_FLOAT_EQ(y.at(0, 1), 27.0f);  // 3+4+20
}

TEST(ReluLayer, GradientsAwayFromKink) {
  util::Rng rng(4);
  ReLU layer("relu");
  // Shift inputs away from 0 so finite differences are valid.
  Tensor in = random_input({4, 5}, rng);
  for (float& v : in.data()) v += (v >= 0.0f ? 0.5f : -0.5f);
  check_layer_gradients(layer, in);
}

TEST(ReluLayer, ZeroesNegatives) {
  ReLU layer("relu");
  Tensor in = Tensor::from({-1.0f, 0.0f, 2.0f});
  in.reshape({1, 3});
  const Tensor out = layer.forward(in, false);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[1], 0.0f);
  EXPECT_FLOAT_EQ(out[2], 2.0f);
}

TEST(ReluLayer, SeedRulesInEverySimdTier) {
  // The branch-free kernels keep the seed's rules bit for bit in every
  // tier: forward maps x > 0 to x and everything else (-0, NaN, -inf) to
  // +0; backward zeroes the gradient where x <= 0 and passes it through
  // where x is NaN. 77 elements cover full vectors and a scalar tail.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> xs = {-0.0f, 0.0f,    nan,     -nan, inf,
                           -inf,  1e-45f, -1e-45f, 2.5f, -3.0f};
  util::Rng rng(4);
  while (xs.size() < 77) xs.push_back(static_cast<float>(rng.normal()));
  const Tensor x({7, 11}, xs);
  const Tensor g = random_input({7, 11}, rng);
  Tensor want_y({7, 11}), want_dx({7, 11});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    want_y[i] = x[i] > 0.0f ? x[i] : 0.0f;
    want_dx[i] = x[i] <= 0.0f ? 0.0f : g[i];
  }
  using util::simd::Tier;
  for (Tier t : {Tier::kScalar, Tier::kAvx2, Tier::kAvx512}) {
    if (t > util::simd::hardware_tier()) continue;
    util::simd::ScopedTier forced(t);
    ReLU layer("relu");
    const Tensor y = layer.forward(x, true);
    const Tensor dx = layer.backward(g);
    EXPECT_EQ(std::memcmp(y.raw(), want_y.raw(), y.numel() * sizeof(float)),
              0)
        << "forward, " << util::simd::tier_name(t);
    EXPECT_EQ(
        std::memcmp(dx.raw(), want_dx.raw(), dx.numel() * sizeof(float)), 0)
        << "backward, " << util::simd::tier_name(t);
  }
}

TEST(TanhLayer, Gradients) {
  util::Rng rng(5);
  Tanh layer("tanh");
  check_layer_gradients(layer, random_input({3, 4}, rng));
}

TEST(GeluLayer, Gradients) {
  util::Rng rng(6);
  Gelu layer("gelu");
  check_layer_gradients(layer, random_input({3, 4}, rng));
}

TEST(Conv2dLayer, GradientsMatchFiniteDifference) {
  util::Rng rng(7);
  Conv2d layer("conv", 2, 3, 5, 5, 3, 1, 1, rng);
  check_layer_gradients(layer, random_input({2, 2, 5, 5}, rng));
}

TEST(Conv2dLayer, StridedNoPad) {
  util::Rng rng(8);
  Conv2d layer("conv", 1, 2, 6, 6, 2, 2, 0, rng);
  check_layer_gradients(layer, random_input({1, 1, 6, 6}, rng));
}

TEST(Conv2dLayer, OutputShape) {
  util::Rng rng(9);
  Conv2d layer("conv", 3, 8, 8, 8, 3, 1, 1, rng);
  const Tensor out = layer.forward(random_input({4, 3, 8, 8}, rng), false);
  EXPECT_EQ(out.shape(), (tensor::Shape{4, 8, 8, 8}));
}

TEST(Conv2dLayer, ForwardMatchesDirectConvolution) {
  // The implicit-GEMM kernels against a direct 7-loop convolution.
  util::Rng rng(91);
  const std::size_t B = 2, C = 3, H = 6, W = 5, OC = 4, K = 3;
  const std::size_t stride = 1, pad = 1;
  Conv2d layer("conv", C, OC, H, W, K, stride, pad, rng);
  const Tensor x = random_input({B, C, H, W}, rng);
  const Tensor out = layer.forward(x, false);

  auto params = layer.params();
  const Tensor& weight = *params[0].value;  // [OC, C*K*K]
  const Tensor& bias = *params[1].value;
  const std::size_t oh = (H + 2 * pad - K) / stride + 1;
  const std::size_t ow = (W + 2 * pad - K) / stride + 1;
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t oc = 0; oc < OC; ++oc) {
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          double s = bias[oc];
          for (std::size_t c = 0; c < C; ++c) {
            for (std::size_t ky = 0; ky < K; ++ky) {
              for (std::size_t kx = 0; kx < K; ++kx) {
                const long long iy =
                    static_cast<long long>(oy * stride + ky) - pad;
                const long long ix =
                    static_cast<long long>(ox * stride + kx) - pad;
                if (iy < 0 || ix < 0 || iy >= static_cast<long long>(H) ||
                    ix >= static_cast<long long>(W)) {
                  continue;
                }
                s += static_cast<double>(
                         x.at(b, c, static_cast<std::size_t>(iy),
                              static_cast<std::size_t>(ix))) *
                     weight.at(oc, (c * K + ky) * K + kx);
              }
            }
          }
          EXPECT_NEAR(out.at(b, oc, oy, ox), s, 1e-4)
              << "b=" << b << " oc=" << oc << " oy=" << oy << " ox=" << ox;
        }
      }
    }
  }
}

TEST(Conv2dLayer, BatchedMatchesPerSampleBitwise) {
  // Batching must change nothing: a batch-3 pass and three batch-1 passes
  // over the same layer produce byte-identical outputs and accumulated
  // gradients.
  util::Rng rng(92);
  const std::size_t B = 3, C = 2, H = 7, W = 7, OC = 5;
  const Tensor x = random_input({B, C, H, W}, rng);

  util::Rng wrng(93);
  Conv2d batched("conv", C, OC, H, W, 3, 1, 1, wrng);
  util::Rng wrng2(93);
  Conv2d single("conv", C, OC, H, W, 3, 1, 1, wrng2);

  const Tensor out = batched.forward(x, true);
  Tensor gout = random_input(out.shape(), rng);
  const Tensor dx = batched.backward(gout);

  const std::size_t img = C * H * W;
  const std::size_t oimg = out.numel() / B;
  Tensor outs(out.shape()), dxs(x.shape());
  for (std::size_t b = 0; b < B; ++b) {
    Tensor xb({1, C, H, W});
    std::memcpy(xb.raw(), x.raw() + b * img, img * sizeof(float));
    const Tensor ob = single.forward(xb, true);
    std::memcpy(outs.raw() + b * oimg, ob.raw(), oimg * sizeof(float));
    Tensor gb({1, OC, out.dim(2), out.dim(3)});
    std::memcpy(gb.raw(), gout.raw() + b * oimg, oimg * sizeof(float));
    const Tensor db = single.backward(gb);
    std::memcpy(dxs.raw() + b * img, db.raw(), img * sizeof(float));
  }
  EXPECT_EQ(std::memcmp(out.raw(), outs.raw(), out.numel() * sizeof(float)),
            0)
      << "forward diverged from per-sample";
  EXPECT_EQ(std::memcmp(dx.raw(), dxs.raw(), dx.numel() * sizeof(float)), 0)
      << "input gradient diverged from per-sample";
  auto pb = batched.params();
  auto ps = single.params();
  for (std::size_t i = 0; i < pb.size(); ++i) {
    EXPECT_EQ(std::memcmp(pb[i].grad->raw(), ps[i].grad->raw(),
                          pb[i].grad->numel() * sizeof(float)),
              0)
        << "gradient " << pb[i].name << " diverged from per-sample";
  }
}

TEST(MaxPoolLayer, ForwardPicksMax) {
  MaxPool2d layer("pool", 1, 2, 2, 2, 2);
  Tensor in({1, 1, 2, 2});
  in.at(0, 0, 0, 0) = 1.0f;
  in.at(0, 0, 0, 1) = 5.0f;
  in.at(0, 0, 1, 0) = 3.0f;
  in.at(0, 0, 1, 1) = 2.0f;
  const Tensor out = layer.forward(in, false);
  EXPECT_EQ(out.numel(), 1u);
  EXPECT_FLOAT_EQ(out[0], 5.0f);
}

TEST(MaxPoolLayer, BackwardRoutesToArgmax) {
  MaxPool2d layer("pool", 1, 2, 2, 2, 2);
  Tensor in({1, 1, 2, 2});
  in.at(0, 0, 0, 1) = 5.0f;
  (void)layer.forward(in, true);
  Tensor g({1, 1, 1, 1});
  g[0] = 2.5f;
  const Tensor din = layer.backward(g);
  EXPECT_FLOAT_EQ(din.at(0, 0, 0, 1), 2.5f);
  EXPECT_FLOAT_EQ(din.at(0, 0, 0, 0), 0.0f);
}

TEST(MaxPoolLayer, WindowWithoutAMaxRoutesToItsFirstElement) {
  // Window 0 peaks at (1, 1); window 1 holds only NaN and −inf, so nothing
  // in it beats −inf. Its gradient goes to its own first element (0, 2),
  // never to element 0 of the batch.
  MaxPool2d layer("pool", 1, 2, 4, 2, 2);
  Tensor in({1, 1, 2, 4});
  in.at(0, 0, 1, 1) = 5.0f;
  in.at(0, 0, 0, 2) = std::numeric_limits<float>::quiet_NaN();
  in.at(0, 0, 0, 3) = -std::numeric_limits<float>::infinity();
  in.at(0, 0, 1, 2) = std::numeric_limits<float>::quiet_NaN();
  in.at(0, 0, 1, 3) = std::numeric_limits<float>::quiet_NaN();
  const Tensor out = layer.forward(in, true);
  EXPECT_EQ(out[0], 5.0f);
  EXPECT_EQ(out[1], -std::numeric_limits<float>::infinity());
  Tensor g({1, 1, 1, 2});
  g[0] = 1.5f;
  g[1] = 2.5f;
  const Tensor din = layer.backward(g);
  EXPECT_EQ(din.at(0, 0, 1, 1), 1.5f);
  EXPECT_EQ(din.at(0, 0, 0, 2), 2.5f);
  EXPECT_EQ(din.at(0, 0, 0, 0), 0.0f);
}

TEST(MaxPoolLayer, GradientsViaFiniteDifference) {
  util::Rng rng(10);
  MaxPool2d layer("pool", 2, 4, 4, 2, 2);
  // Well-separated values avoid argmax flips under the probe epsilon.
  Tensor in({1, 2, 4, 4});
  for (std::size_t i = 0; i < in.numel(); ++i) {
    in[i] = static_cast<float>(i % 7) + 0.1f * static_cast<float>(rng.normal());
  }
  check_layer_gradients(layer, in, 16, 1e-3f);
}

TEST(FlattenLayer, RoundTripShapes) {
  Flatten layer("flat");
  util::Rng rng(11);
  const Tensor in = random_input({2, 3, 4, 4}, rng);
  const Tensor out = layer.forward(in, false);
  EXPECT_EQ(out.shape(), (tensor::Shape{2, 48}));
  const Tensor back = layer.backward(out);
  EXPECT_EQ(back.shape(), in.shape());
}

TEST(LayerNormLayer, NormalizesRows) {
  LayerNorm layer("ln", 8);
  util::Rng rng(12);
  const Tensor out = layer.forward(random_input({4, 8}, rng, 3.0), false);
  for (std::size_t r = 0; r < 4; ++r) {
    double mean = 0.0, var = 0.0;
    for (float v : out.row(r)) mean += v;
    mean /= 8.0;
    for (float v : out.row(r)) var += (v - mean) * (v - mean);
    var /= 8.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(LayerNormLayer, Gradients) {
  util::Rng rng(13);
  LayerNorm layer("ln", 6);
  check_layer_gradients(layer, random_input({3, 6}, rng), 24, 1e-2f, 4e-2f);
}

TEST(DropoutLayer, EvalIsIdentity) {
  Dropout layer("drop", 0.5f, util::Rng(3));
  util::Rng rng(14);
  const Tensor in = random_input({2, 10}, rng);
  const Tensor out = layer.forward(in, false);
  for (std::size_t i = 0; i < in.numel(); ++i) {
    EXPECT_FLOAT_EQ(out[i], in[i]);
  }
}

TEST(DropoutLayer, TrainDropsAndRescales) {
  Dropout layer("drop", 0.5f, util::Rng(3));
  Tensor in({1, 1000}, 1.0f);
  const Tensor out = layer.forward(in, true);
  std::size_t zeros = 0;
  for (float v : out.data()) {
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(v, 2.0f);  // inverted dropout scale 1/(1-0.5)
    }
  }
  EXPECT_GT(zeros, 400u);
  EXPECT_LT(zeros, 600u);
}

TEST(DropoutLayer, BackwardUsesSameMask) {
  Dropout layer("drop", 0.3f, util::Rng(5));
  Tensor in({1, 100}, 1.0f);
  const Tensor out = layer.forward(in, true);
  Tensor g({1, 100}, 1.0f);
  const Tensor din = layer.backward(g);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_FLOAT_EQ(din[i], out[i]);  // same mask, same scale on ones
  }
}

TEST(EmbeddingLayer, LooksUpRows) {
  util::Rng rng(15);
  Embedding layer("emb", 10, 4, rng);
  Tensor ids({2, 3});
  ids[0] = 1.0f;
  ids[1] = 2.0f;
  ids[2] = 1.0f;
  ids[3] = 0.0f;
  ids[4] = 9.0f;
  ids[5] = 9.0f;
  const Tensor out = layer.forward(ids, false);
  EXPECT_EQ(out.shape(), (tensor::Shape{2, 3, 4}));
  // Same id → same embedding.
  for (std::size_t d = 0; d < 4; ++d) {
    EXPECT_FLOAT_EQ(out[0 * 4 + d], out[2 * 4 + d]);
    EXPECT_FLOAT_EQ(out[4 * 4 + d], out[5 * 4 + d]);
  }
}

TEST(EmbeddingLayer, RejectsOutOfVocab) {
  util::Rng rng(16);
  Embedding layer("emb", 4, 2, rng);
  Tensor ids({1, 1});
  ids[0] = 4.0f;
  EXPECT_THROW((void)layer.forward(ids, false), util::CheckError);
}

TEST(EmbeddingLayer, BackwardScatterAdds) {
  util::Rng rng(17);
  Embedding layer("emb", 5, 2, rng);
  Tensor ids({1, 2});
  ids[0] = 3.0f;
  ids[1] = 3.0f;  // same token twice: grads must accumulate
  (void)layer.forward(ids, true);
  Tensor g({1, 2, 2}, 1.0f);
  (void)layer.backward(g);
  auto params = layer.params();
  const Tensor& tg = *params[0].grad;
  EXPECT_FLOAT_EQ(tg[3 * 2 + 0], 2.0f);
  EXPECT_FLOAT_EQ(tg[3 * 2 + 1], 2.0f);
  EXPECT_FLOAT_EQ(tg[0], 0.0f);
}

TEST(SelfAttentionLayer, GradientsMatchFiniteDifference) {
  util::Rng rng(18);
  SelfAttention layer("attn", 4, rng);
  check_layer_gradients(layer, random_input({2, 3, 4}, rng), 20, 1e-2f,
                        4e-2f);
}

TEST(SelfAttentionLayer, PreservesShape) {
  util::Rng rng(19);
  SelfAttention layer("attn", 8, rng);
  const Tensor in = random_input({3, 5, 8}, rng);
  EXPECT_EQ(layer.forward(in, false).shape(), in.shape());
}

TEST(SelfAttentionLayer, BitIdenticalAcrossTiersAndThreads) {
  // Outputs and every gradient are byte-equal in every SIMD tier and at 1
  // and 3 threads. A smaller batch first makes the layer resize its
  // buffers; the second step runs at the BERTbase proxy's shape [12, 16, 24]
  // and accumulates into the first step's weight gradients.
  util::Rng rng(20);
  const Tensor small_in = random_input({3, 5, 24}, rng);
  const Tensor small_g = random_input({3, 5, 24}, rng);
  const Tensor in = random_input({12, 16, 24}, rng);
  const Tensor g = random_input({12, 16, 24}, rng);
  const auto run = [&] {
    util::Rng init(21);
    SelfAttention layer("attn", 24, init);
    (void)layer.forward(small_in, true);
    (void)layer.backward(small_g);
    std::vector<Tensor> out{layer.forward(in, true)};
    out.push_back(layer.backward(g));
    for (const ParamRef& p : layer.params()) out.push_back(*p.grad);
    return out;
  };
  using util::simd::Tier;
  std::vector<Tensor> want;
  {
    util::simd::ScopedTier forced(Tier::kScalar);
    util::ThreadPool solo(1);
    util::ThreadPool::ScopedGlobal guard(solo);
    want = run();
  }
  for (Tier t : {Tier::kScalar, Tier::kAvx2, Tier::kAvx512}) {
    if (t > util::simd::hardware_tier()) continue;
    util::simd::ScopedTier forced(t);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      util::ThreadPool pool(threads);
      util::ThreadPool::ScopedGlobal guard(pool);
      const std::vector<Tensor> got = run();
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].shape(), want[i].shape());
        EXPECT_EQ(std::memcmp(got[i].raw(), want[i].raw(),
                              got[i].numel() * sizeof(float)),
                  0)
            << "tensor " << i << " (output, input gradient, dWq, dWk, dWv, "
            << "dWo), " << util::simd::tier_name(t) << ", " << threads
            << " threads";
      }
    }
  }
}

TEST(Sequential, ChainsAndEnumeratesParams) {
  util::Rng rng(20);
  Sequential m;
  m.emplace<Linear>("fc0", 4, 8, rng);
  m.emplace<ReLU>("relu");
  m.emplace<Linear>("fc1", 8, 2, rng);
  EXPECT_EQ(m.num_layers(), 3u);
  EXPECT_EQ(m.params().size(), 4u);  // 2 weights + 2 biases
  EXPECT_EQ(m.num_params(), 4 * 8 + 8 + 8 * 2 + 2);
  const Tensor out = m.forward(random_input({5, 4}, rng), false);
  EXPECT_EQ(out.shape(), (tensor::Shape{5, 2}));
}

TEST(Sequential, ZeroGradClearsAll) {
  util::Rng rng(21);
  Sequential m;
  m.emplace<Linear>("fc0", 3, 3, rng);
  const Tensor in = random_input({2, 3}, rng);
  (void)m.forward(in, true);
  Tensor g({2, 3}, 1.0f);
  (void)m.backward(g);
  bool any_nonzero = false;
  for (ParamRef& p : m.params()) {
    for (float v : p.grad->data()) any_nonzero |= v != 0.0f;
  }
  EXPECT_TRUE(any_nonzero);
  m.zero_grad();
  for (ParamRef& p : m.params()) {
    for (float v : p.grad->data()) EXPECT_FLOAT_EQ(v, 0.0f);
  }
}

TEST(Sequential, WholeModelGradientCheck) {
  // End-to-end: MLP forward/backward against finite differences on the
  // flattened parameter vector.
  util::Rng rng(22);
  Sequential m;
  m.emplace<Linear>("fc0", 4, 6, rng);
  m.emplace<Tanh>("tanh");
  m.emplace<Linear>("fc1", 6, 3, rng);
  const Tensor in = random_input({3, 4}, rng);
  Readout readout(9, rng);

  m.zero_grad();
  Tensor out = m.forward(in, true);
  (void)m.backward(readout.grad(out.shape()));

  const float eps = 1e-2f;
  for (ParamRef& p : m.params()) {
    const std::size_t stride = std::max<std::size_t>(1, p.numel() / 8);
    for (std::size_t i = 0; i < p.numel(); i += stride) {
      const float analytic = (*p.grad)[i];
      const float saved = (*p.value)[i];
      (*p.value)[i] = saved + eps;
      const double up = readout.value(m.forward(in, true));
      (*p.value)[i] = saved - eps;
      const double down = readout.value(m.forward(in, true));
      (*p.value)[i] = saved;
      const double fd = (up - down) / (2.0 * eps);
      EXPECT_NEAR(analytic, fd, 2e-2 * std::max(1.0, std::abs(fd)))
          << p.name << "[" << i << "]";
    }
  }
}

}  // namespace
}  // namespace osp::nn
