// Tensor library tests: shapes, access, matmul orientations against naive
// references, im2col/col2im adjointness, the implicit-GEMM conv kernels
// against the im2col reference in every SIMD tier, softmax, and
// initializers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "tensor/conv.hpp"
#include "tensor/gemm.hpp"
#include "tensor/init.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace osp::tensor {
namespace {

TEST(Tensor, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6u);
  EXPECT_EQ(t.rank(), 2u);
  for (float v : t.data()) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(Tensor, FillConstructor) {
  Tensor t({2, 2}, 3.5f);
  for (float v : t.data()) EXPECT_FLOAT_EQ(v, 3.5f);
}

TEST(Tensor, ExplicitDataValidated) {
  EXPECT_NO_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3, 4}));
  EXPECT_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3}),
               util::CheckError);
}

TEST(Tensor, From1D) {
  Tensor t = Tensor::from({1.0f, 2.0f, 3.0f});
  EXPECT_EQ(t.rank(), 1u);
  EXPECT_EQ(t.dim(0), 3u);
  EXPECT_FLOAT_EQ(t[1], 2.0f);
}

TEST(Tensor, TwoDAccessRowMajor) {
  Tensor t({2, 3});
  t.at(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(t[5], 5.0f);
  EXPECT_FLOAT_EQ(t.at(1, 2), 5.0f);
}

TEST(Tensor, TwoDAccessBoundsChecked) {
  Tensor t({2, 3});
  EXPECT_THROW((void)t.at(2, 0), util::CheckError);
  EXPECT_THROW((void)t.at(0, 3), util::CheckError);
}

TEST(Tensor, FourDAccessNchw) {
  Tensor t({2, 3, 4, 5});
  t.at(1, 2, 3, 4) = 9.0f;
  EXPECT_FLOAT_EQ(t[((1 * 3 + 2) * 4 + 3) * 5 + 4], 9.0f);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3});
  t.at(0, 1) = 7.0f;
  t.reshape({3, 2});
  EXPECT_FLOAT_EQ(t.at(0, 1), 7.0f);  // flat index 1 unchanged
  EXPECT_THROW(t.reshape({4, 2}), util::CheckError);
}

TEST(Tensor, ReshapedCopyLeavesOriginal) {
  Tensor t({2, 2});
  Tensor r = t.reshaped({4});
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_EQ(r.rank(), 1u);
}

TEST(Tensor, RowSpanWritesThrough) {
  Tensor t({2, 3});
  auto row = t.row(1);
  row[0] = 4.0f;
  EXPECT_FLOAT_EQ(t.at(1, 0), 4.0f);
}

TEST(Tensor, ShapeHelpers) {
  EXPECT_EQ(shape_numel({2, 3, 4}), 24u);
  EXPECT_EQ(shape_numel({}), 1u);
  EXPECT_EQ(shape_to_string({2, 3}), "[2, 3]");
}

/// Scalar plus every tier the CPU supports.
std::vector<util::simd::Tier> testable_tiers() {
  using util::simd::Tier;
  std::vector<Tier> tiers{Tier::kScalar};
  for (Tier t : {Tier::kAvx2, Tier::kAvx512}) {
    if (t <= util::simd::hardware_tier()) tiers.push_back(t);
  }
  return tiers;
}

/// Calls fn(label) once per testable tier at 1 and at 3 threads.
template <typename Fn>
void for_each_tier_and_pool(const Fn& fn) {
  for (const util::simd::Tier t : testable_tiers()) {
    util::simd::ScopedTier forced(t);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      util::ThreadPool pool(threads);
      util::ThreadPool::ScopedGlobal guard(pool);
      fn(std::string(util::simd::tier_name(t)) + " tier, " +
         std::to_string(threads) + " threads");
    }
  }
}

/// Bit equality, except that any NaN matches any NaN: which operand's
/// payload an IEEE add of two NaNs returns is left to the hardware and the
/// compiler, and is not part of the matmul or conv contract. Where the
/// reference has no NaN this is a memcmp.
bool same_bits_up_to_nan(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) return false;
  }
  return true;
}

bool same_bits_up_to_nan(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() && same_bits_up_to_nan(a.data(), b.data());
}

// The matmul contract: one accumulator per element, starting at 0 and
// adding A[i,p]·B[p,j] in ascending p.
Tensor ref_matmul(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float s = 0.0f;
      for (std::size_t p = 0; p < k; ++p) s += a.at(i, p) * b.at(p, j);
      c.at(i, j) = s;
    }
  }
  return c;
}

/// C + fresh, the float order of the accumulating matmuls.
Tensor ref_accumulate(const Tensor& c, const Tensor& fresh) {
  Tensor out = c;
  for (std::size_t i = 0; i < out.numel(); ++i) out[i] += fresh[i];
  return out;
}

Tensor random_matrix(std::size_t r, std::size_t c, util::Rng& rng) {
  Tensor t({r, c});
  for (float& v : t.data()) v = static_cast<float>(rng.normal());
  return t;
}

Tensor transposed(const Tensor& a) {
  Tensor t({a.dim(1), a.dim(0)});
  transpose(a, t);
  return t;
}

enum class Orientation { kNN, kTN, kNT };

/// Checks one orientation bit for bit against ref_matmul, storing into a
/// C filled with garbage and accumulating into a random C.
void expect_matmul_exact(Orientation o, const Tensor& a, const Tensor& b,
                         util::Rng& rng) {
  const Tensor ref = ref_matmul(o == Orientation::kTN ? transposed(a) : a,
                                o == Orientation::kNT ? transposed(b) : b);
  const Tensor c0 = random_matrix(ref.dim(0), ref.dim(1), rng);
  const Tensor ref_acc = ref_accumulate(c0, ref);
  const auto mm = [&](Tensor& c, bool accumulate) {
    switch (o) {
      case Orientation::kNN:
        return matmul(a, b, c, accumulate);
      case Orientation::kTN:
        return matmul_tn(a, b, c, accumulate);
      case Orientation::kNT:
        return matmul_nt(a, b, c, accumulate);
    }
  };
  for_each_tier_and_pool([&](const std::string& at) {
    Tensor c(ref.shape(), 7.0f);
    mm(c, false);
    EXPECT_TRUE(same_bits_up_to_nan(c, ref)) << at;
    Tensor acc = c0;
    mm(acc, true);
    EXPECT_TRUE(same_bits_up_to_nan(acc, ref_acc)) << "accumulate, " << at;
  });
}

class MatmulSizes : public ::testing::TestWithParam<
                        std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(MatmulSizes, MatchesNaiveReference) {
  auto [m, k, n] = GetParam();
  util::Rng rng(m * 1000 + k * 100 + n);
  const Tensor a = random_matrix(m, k, rng);
  const Tensor b = random_matrix(k, n, rng);
  expect_matmul_exact(Orientation::kNN, a, b, rng);
}

TEST_P(MatmulSizes, TnMatchesTransposedReference) {
  auto [m, k, n] = GetParam();
  util::Rng rng(42 + m + k + n);
  const Tensor a = random_matrix(k, m, rng);  // used transposed
  const Tensor b = random_matrix(k, n, rng);
  expect_matmul_exact(Orientation::kTN, a, b, rng);
}

TEST_P(MatmulSizes, NtMatchesTransposedReference) {
  auto [m, k, n] = GetParam();
  util::Rng rng(77 + m * k * n);
  const Tensor a = random_matrix(m, k, rng);
  const Tensor b = random_matrix(n, k, rng);  // used transposed
  expect_matmul_exact(Orientation::kNT, a, b, rng);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulSizes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(7, 5, 3), std::make_tuple(16, 16, 16),
                      std::make_tuple(33, 17, 9),
                      std::make_tuple(64, 48, 32),
                      std::make_tuple(128, 70, 5)));

// Long reductions, primes, and shapes large enough to split across the
// pool.
INSTANTIATE_TEST_SUITE_P(
    AwkwardShapes, MatmulSizes,
    ::testing::Values(std::make_tuple(1, 257, 1), std::make_tuple(257, 1, 9),
                      std::make_tuple(1, 9, 257),
                      std::make_tuple(13, 29, 31),
                      std::make_tuple(63, 65, 64),
                      std::make_tuple(65, 64, 63),
                      std::make_tuple(127, 129, 65),
                      std::make_tuple(31, 520, 17)));

// Every (m, k, n) of these: n around the 8- and 16-lane strips, m around
// the 8-row tiles (10 rows run as 5+5) up to the attention projections'
// 192, and an empty, a single and the attention width's reduction.
INSTANTIATE_TEST_SUITE_P(
    EdgeShapes, MatmulSizes,
    ::testing::Combine(
        ::testing::ValuesIn(std::vector<std::size_t>{1, 7, 8, 9, 10, 192}),
        ::testing::ValuesIn(std::vector<std::size_t>{0, 1, 24}),
        ::testing::ValuesIn(
            std::vector<std::size_t>{1, 15, 16, 17, 24, 31, 32, 33})));

// ---- the panel GEMM's register tiles ----

/// One panel call checked bit for bit against the straight triple loop:
/// A read through strides (row-major with padded rows, or transposed), B
/// and C with padded rows, every epilogue. C's padding must stay as it was.
void expect_panel_exact(std::size_t m, std::size_t n, std::size_t k,
                        bool a_transposed, util::Rng& rng,
                        const std::string& at) {
  const std::size_t a_rs = a_transposed ? 1 : k + 2;
  const std::size_t a_cs = a_transposed ? m + 3 : 1;
  const std::size_t ldb = n + 5, ldc = n + 7;
  std::vector<float> a(std::max(m * a_rs + k * a_cs, std::size_t{1}));
  std::vector<float> b(k * ldb + 1), bias(m), c0(m * ldc);
  for (auto* v : {&a, &b, &bias, &c0}) {
    for (float& x : *v) x = static_cast<float>(rng.normal());
  }
  for (const Epilogue epi :
       {Epilogue::kStore, Epilogue::kAddBias, Epilogue::kAccumulate}) {
    std::vector<float> want = c0;
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        float acc = 0.0f;
        for (std::size_t p = 0; p < k; ++p) {
          acc += a[i * a_rs + p * a_cs] * b[p * ldb + j];
        }
        float& w = want[i * ldc + j];
        w = epi == Epilogue::kStore     ? acc
            : epi == Epilogue::kAddBias ? acc + bias[i]
                                        : w + acc;
      }
    }
    const Panel pn{m,   n,        k,   a.data(),    a_rs, a_cs,
                   b.data(), ldb, nullptr, ldc, bias.data(), epi};
    for (const bool split : {false, true}) {
      std::vector<float> got = c0;
      Panel run = pn;
      run.c = got.data();
      split ? parallel_gemm(run) : gemm(run);
      EXPECT_TRUE(same_bits_up_to_nan(got, want))
          << m << "x" << n << "x" << k << (a_transposed ? " Aᵀ" : " A")
          << ", epilogue " << int(epi) << (split ? ", split, " : ", ")
          << at;
    }
  }
}

// Tiles are R rows × V vectors, V ≤ 4 and R up to 12, the last vector
// masked. Every m ≤ 12 against every n ≤ 64 reaches each (R, V) tile and
// tail mask of the 8- and 16-lane tiers; random shapes up to 40 × 80 add
// multi-tile rows and multi-group columns (up to 10 vectors of 8).
TEST(PanelGemm, RandomizedSweepMatchesReference) {
  util::Rng rng(4242);
  for_each_tier_and_pool([&](const std::string& at) {
    for (std::size_t m = 1; m <= 12; ++m) {
      for (std::size_t n = 1; n <= 64; ++n) {
        const auto k = static_cast<std::size_t>(rng.uniform(0.0, 41.0));
        expect_panel_exact(m, n, k, (m + n) % 2 == 0, rng, at);
      }
    }
    for (int i = 0; i < 300; ++i) {
      const auto m = 1 + static_cast<std::size_t>(rng.uniform(0.0, 40.0));
      const auto n = 1 + static_cast<std::size_t>(rng.uniform(0.0, 80.0));
      const auto k = static_cast<std::size_t>(rng.uniform(0.0, 41.0));
      expect_panel_exact(m, n, k, i % 2 == 0, rng, at);
    }
  });
}

TEST(Ops, MatmulSpecialValuesMatchReference) {
  // Row 0 of every operand is -0 (sums of ±0 products must come out +0, as
  // the reference's do), row 1 is subnormal (subnormal products and sums),
  // and ±Inf, NaN, -0 and tiny values are sprinkled over the rest.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> specials = {inf,  -0.0f, nan,    1e-20f,
                                       -inf, 1e-45f, -2e-21f};
  util::Rng rng(909);
  const auto matrix = [&](std::size_t r, std::size_t c) {
    Tensor t = random_matrix(r, c, rng);
    for (std::size_t j = 0; j < c; ++j) {
      t.at(0, j) = -0.0f;
      t.at(1, j) *= 1e-39f;
    }
    for (std::size_t i = 2 * c; i < t.numel(); i += 13) {
      t[i] = specials[(i / 13) % specials.size()];
    }
    return t;
  };
  const std::size_t m = 9, k = 24, n = 17;
  const Tensor a = matrix(m, k), b = matrix(k, n);
  std::size_t finite = 0, nans = 0;
  const Tensor want = ref_matmul(a, b);  // data() must not outlive it
  for (float v : want.data()) {
    (std::isfinite(v) ? finite : nans) += 1;
  }
  ASSERT_GT(finite, 0u);
  ASSERT_GT(nans, 0u);
  expect_matmul_exact(Orientation::kNN, a, b, rng);
  expect_matmul_exact(Orientation::kTN, matrix(k, m), b, rng);
  expect_matmul_exact(Orientation::kNT, a, matrix(n, k), rng);
}

TEST(Ops, KernelsBitIdenticalAcrossThreadCounts) {
  // The parallel decomposition must never change results: run the same
  // inputs under pools of 1, 2, and 5 threads and require byte-equal
  // outputs. Sizes are chosen to cross the parallel thresholds.
  util::Rng rng(5150);
  const Tensor a = random_matrix(127, 130, rng);
  const Tensor b = random_matrix(130, 129, rng);
  const Tensor a2 = random_matrix(127, 33, rng);
  const Tensor bt = random_matrix(129, 130, rng);
  const Tensor wide = random_matrix(5, 9001, rng);

  auto run_all = [&](Tensor& mm, Tensor& tn, Tensor& nt, Tensor& sm,
                     std::vector<float>& sums) {
    matmul(a, b, mm);
    matmul_tn(a, a2, tn);  // [130,127]·[127,33]
    matmul_nt(a, bt, nt);
    softmax_rows(a, sm);
    sum_rows(wide, sums);
  };

  Tensor mm1({127, 129}), tn1({130, 33}), nt1({127, 129}), sm1({127, 130});
  std::vector<float> sums1(9001, 0.0f);
  {
    util::ThreadPool solo(1);
    util::ThreadPool::ScopedGlobal guard(solo);
    run_all(mm1, tn1, nt1, sm1, sums1);
  }
  for (std::size_t threads : {2, 5}) {
    util::ThreadPool pool(threads);
    util::ThreadPool::ScopedGlobal guard(pool);
    Tensor mm({127, 129}), tn({130, 33}), nt({127, 129}), sm({127, 130});
    std::vector<float> sums(9001, 0.0f);
    run_all(mm, tn, nt, sm, sums);
    EXPECT_EQ(
        std::memcmp(mm.raw(), mm1.raw(), mm.numel() * sizeof(float)), 0)
        << "matmul diverged at " << threads << " threads";
    EXPECT_EQ(
        std::memcmp(tn.raw(), tn1.raw(), tn.numel() * sizeof(float)), 0)
        << "matmul_tn diverged at " << threads << " threads";
    EXPECT_EQ(
        std::memcmp(nt.raw(), nt1.raw(), nt.numel() * sizeof(float)), 0)
        << "matmul_nt diverged at " << threads << " threads";
    EXPECT_EQ(
        std::memcmp(sm.raw(), sm1.raw(), sm.numel() * sizeof(float)), 0)
        << "softmax_rows diverged at " << threads << " threads";
    EXPECT_EQ(std::memcmp(sums.data(), sums1.data(),
                          sums.size() * sizeof(float)),
              0)
        << "sum_rows diverged at " << threads << " threads";
  }
}

TEST(Ops, SumRowsWideMatrixAccumulates) {
  // Wide enough that the column range splits across workers; the +=
  // contract and per-column row order must survive the parallel path.
  const std::size_t rows = 6, cols = 9001;
  Tensor x({rows, cols});
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      x.at(r, c) = static_cast<float>(r + 1) + 0.25f * static_cast<float>(c % 4);
    }
  }
  std::vector<float> out(cols, 2.0f);  // pre-seeded: must accumulate
  util::ThreadPool pool(4);
  util::ThreadPool::ScopedGlobal guard(pool);
  sum_rows(x, out);
  for (std::size_t c = 0; c < cols; c += 997) {
    float expect = 2.0f;
    for (std::size_t r = 0; r < rows; ++r) expect += x.at(r, c);
    EXPECT_FLOAT_EQ(out[c], expect) << "column " << c;
  }
}

TEST(Ops, MatmulShapeMismatchThrows) {
  Tensor a({2, 3}), b({4, 5}), c({2, 5});
  EXPECT_THROW(matmul(a, b, c), util::CheckError);
}

TEST(Ops, AddBiasRows) {
  Tensor x({2, 3}, 1.0f);
  std::vector<float> bias = {1, 2, 3};
  add_bias_rows(x, bias);
  EXPECT_FLOAT_EQ(x.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(x.at(1, 2), 4.0f);
}

TEST(Ops, SumRowsAccumulates) {
  Tensor x({2, 2});
  x.at(0, 0) = 1.0f;
  x.at(1, 0) = 2.0f;
  x.at(0, 1) = 3.0f;
  x.at(1, 1) = 4.0f;
  std::vector<float> out = {10.0f, 0.0f};  // accumulation check
  sum_rows(x, out);
  EXPECT_FLOAT_EQ(out[0], 13.0f);
  EXPECT_FLOAT_EQ(out[1], 7.0f);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  util::Rng rng(4);
  Tensor x = random_matrix(5, 9, rng);
  Tensor out({5, 9});
  softmax_rows(x, out);
  for (std::size_t r = 0; r < 5; ++r) {
    float sum = 0.0f;
    for (float v : out.row(r)) {
      EXPECT_GT(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Ops, SoftmaxStableUnderLargeLogits) {
  Tensor x({1, 3});
  x.at(0, 0) = 1000.0f;
  x.at(0, 1) = 1001.0f;
  x.at(0, 2) = 999.0f;
  Tensor out({1, 3});
  softmax_rows(x, out);
  for (float v : out.data()) {
    EXPECT_TRUE(std::isfinite(v));
  }
  EXPECT_GT(out.at(0, 1), out.at(0, 0));
}

TEST(Ops, TransposeRoundTrip) {
  util::Rng rng(8);
  const Tensor a = random_matrix(4, 7, rng);
  Tensor at({7, 4}), back({4, 7});
  transpose(a, at);
  transpose(at, back);
  for (std::size_t i = 0; i < a.numel(); ++i) {
    EXPECT_FLOAT_EQ(a[i], back[i]);
  }
}

TEST(Conv2dGeom, OutputDims) {
  Conv2dGeom g{3, 8, 8, 3, 1, 1};
  EXPECT_EQ(g.out_h(), 8u);
  EXPECT_EQ(g.out_w(), 8u);
  EXPECT_EQ(g.patch_len(), 27u);
  Conv2dGeom strided{1, 8, 8, 2, 2, 0};
  EXPECT_EQ(strided.out_h(), 4u);
}

TEST(Ops, Im2colIdentityKernel) {
  // 1x1 kernel, stride 1, no pad: im2col is the identity layout.
  Conv2dGeom g{2, 3, 3, 1, 1, 0};
  std::vector<float> img(2 * 3 * 3);
  for (std::size_t i = 0; i < img.size(); ++i) img[i] = static_cast<float>(i);
  Tensor cols({9, 2});
  im2col(img, g, cols);
  for (std::size_t p = 0; p < 9; ++p) {
    EXPECT_FLOAT_EQ(cols.at(p, 0), img[p]);
    EXPECT_FLOAT_EQ(cols.at(p, 1), img[9 + p]);
  }
}

TEST(Ops, Im2colPaddingReadsZero) {
  Conv2dGeom g{1, 2, 2, 3, 1, 1};
  std::vector<float> img = {1, 2, 3, 4};
  Tensor cols({g.patches(), g.patch_len()});
  im2col(img, g, cols);
  // First patch centered at (0,0): the top-left 2x2 of the kernel window is
  // out of bounds.
  EXPECT_FLOAT_EQ(cols.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(cols.at(0, 4), 1.0f);  // kernel center hits pixel (0,0)
}

TEST(Ops, Col2imIsAdjointOfIm2col) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y — the adjoint
  // property that makes conv backward correct.
  Conv2dGeom g{2, 5, 5, 3, 2, 1};
  util::Rng rng(21);
  std::vector<float> x(2 * 5 * 5);
  for (float& v : x) v = static_cast<float>(rng.normal());
  Tensor y({g.patches(), g.patch_len()});
  for (float& v : y.data()) v = static_cast<float>(rng.normal());

  Tensor cols({g.patches(), g.patch_len()});
  im2col(x, g, cols);
  double lhs = 0.0;
  for (std::size_t i = 0; i < y.numel(); ++i) lhs += cols[i] * y[i];

  std::vector<float> xt(x.size(), 0.0f);
  col2im(y, g, xt);
  double rhs = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) rhs += x[i] * xt[i];

  EXPECT_NEAR(lhs, rhs, 1e-3);
}

// ---- Implicit-GEMM conv kernels (conv.hpp) -------------------------------
//
// The reference is the pipeline the kernels replaced, spelled out over the
// im2col matrix: one accumulator per output starting at 0 with ascending
// reduction index and the bias last; col2im adds each pixel's terms in
// ascending (oy, ox); dW sums each sample fresh and adds it in batch order.
// The kernels must reproduce it bit for bit in every SIMD tier and at any
// thread count.

struct ConvCase {
  const char* name;
  Conv2dGeom g;
  std::size_t out_c;
  std::size_t batch;
};

struct ConvData {
  std::vector<float> x, w, bias, gout;
};

struct ConvResult {
  std::vector<float> out, dx, wgrad, bgrad;
};

std::vector<float> conv_values(std::size_t n, util::Rng& rng) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Every 7th value is -0: signed zeros must be summed in order too.
    v[i] = i % 7 == 3 ? -0.0f : static_cast<float>(rng.normal());
  }
  return v;
}

ConvData conv_data(const ConvCase& c, util::Rng& rng) {
  const Conv2dGeom& g = c.g;
  ConvData d;
  d.x = conv_values(c.batch * g.in_channels * g.in_h * g.in_w, rng);
  d.w = conv_values(c.out_c * g.patch_len(), rng);
  d.bias = conv_values(c.out_c, rng);
  d.gout = conv_values(c.batch * c.out_c * g.patches(), rng);
  return d;
}

/// Output buffers; the gradients start nonzero because the kernels add.
ConvResult conv_buffers(const ConvCase& c) {
  const Conv2dGeom& g = c.g;
  ConvResult r;
  r.out.assign(c.batch * c.out_c * g.patches(), 0.0f);
  r.dx.assign(c.batch * g.in_channels * g.in_h * g.in_w, 0.0f);
  r.wgrad.assign(c.out_c * g.patch_len(), 0.5f);
  r.bgrad.assign(c.out_c, -0.25f);
  return r;
}

ConvResult reference_conv(const ConvCase& c, const ConvData& d) {
  const Conv2dGeom& g = c.g;
  const std::size_t patches = g.patches(), plen = g.patch_len();
  const std::size_t img = g.in_channels * g.in_h * g.in_w;
  ConvResult r = conv_buffers(c);
  Tensor cols({patches, plen}), dcols({patches, plen});
  std::vector<float> wg(c.out_c * plen);
  for (std::size_t b = 0; b < c.batch; ++b) {
    im2col(std::span<const float>(d.x).subspan(b * img, img), g, cols);
    const float* gb = d.gout.data() + b * c.out_c * patches;
    for (std::size_t oc = 0; oc < c.out_c; ++oc) {
      for (std::size_t p = 0; p < patches; ++p) {
        float acc = 0.0f;
        for (std::size_t q = 0; q < plen; ++q) {
          acc += cols.at(p, q) * d.w[oc * plen + q];
        }
        r.out[(b * c.out_c + oc) * patches + p] = acc + d.bias[oc];
      }
    }
    for (std::size_t p = 0; p < patches; ++p) {
      for (std::size_t q = 0; q < plen; ++q) {
        float acc = 0.0f;
        for (std::size_t oc = 0; oc < c.out_c; ++oc) {
          acc += gb[oc * patches + p] * d.w[oc * plen + q];
        }
        dcols.at(p, q) = acc;
      }
    }
    col2im(dcols, g, std::span<float>(r.dx).subspan(b * img, img));
    for (std::size_t oc = 0; oc < c.out_c; ++oc) {
      for (std::size_t q = 0; q < plen; ++q) {
        float acc = 0.0f;
        for (std::size_t p = 0; p < patches; ++p) {
          acc += gb[oc * patches + p] * cols.at(p, q);
        }
        wg[oc * plen + q] = acc;
      }
    }
    for (std::size_t i = 0; i < wg.size(); ++i) r.wgrad[i] += wg[i];
  }
  for (std::size_t b = 0; b < c.batch; ++b) {
    for (std::size_t p = 0; p < patches; ++p) {
      for (std::size_t oc = 0; oc < c.out_c; ++oc) {
        r.bgrad[oc] += d.gout[(b * c.out_c + oc) * patches + p];
      }
    }
  }
  return r;
}

ConvResult run_conv_kernels(const ConvCase& c, const ConvData& d) {
  ConvResult r = conv_buffers(c);
  conv2d_forward(d.x.data(), d.w.data(), d.bias.data(), c.g, c.out_c,
                 c.batch, r.out.data());
  conv2d_backward_data(d.gout.data(), d.w.data(), c.g, c.out_c, c.batch,
                       r.dx.data());
  conv2d_backward_weight(d.gout.data(), d.x.data(), c.g, c.out_c, c.batch,
                         r.wgrad.data(), r.bgrad.data());
  return r;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

class ConvKernels : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvKernels, BitIdenticalToIm2colReference) {
  const ConvCase& c = GetParam();
  util::Rng rng(7001);
  const ConvData data = conv_data(c, rng);
  const ConvResult want = reference_conv(c, data);
  for_each_tier_and_pool([&](const std::string& at) {
    const ConvResult got = run_conv_kernels(c, data);
    EXPECT_TRUE(same_bits(got.out, want.out)) << "forward, " << at;
    EXPECT_TRUE(same_bits(got.dx, want.dx)) << "input gradient, " << at;
    EXPECT_TRUE(same_bits(got.wgrad, want.wgrad)) << "weight gradient, " << at;
    EXPECT_TRUE(same_bits(got.bgrad, want.bgrad)) << "bias gradient, " << at;
  });
}

// Geometry fields: {in_channels, in_h, in_w, kernel, stride, pad}. Patch
// counts (oh·ow) of 64, 30, 15, 20, 54, 12, 16, 25 and 1024 cover full and
// partial 8- and 16-lane strips; out_c of 3..19 covers full and short row
// tiles. The Width* cases put the image and output rows (the spans of
// forward and dX) one lane short of, at and one lane past one and two
// 8-lane spans, with and without padding. Stride 1 with pad (k−1)/2 runs
// the shifted-image forward and dX gathers: the Same* cases put 2 (w = 8)
// and 4 (w = 4) image rows in one 16-lane register, widths 6 and 12 split
// rows across registers, k = 5 reaches two pixels past each edge.
INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvKernels,
    ::testing::Values(ConvCase{"Proxy3x3Same", {3, 8, 8, 3, 1, 1}, 10, 4},
                      ConvCase{"K1Stride2", {4, 9, 11, 1, 2, 0}, 5, 2},
                      ConvCase{"K2Stride2", {3, 10, 7, 2, 2, 0}, 17, 2},
                      ConvCase{"K5Stride2", {2, 13, 11, 5, 2, 0}, 9, 2},
                      ConvCase{"NonSquarePad2", {2, 6, 9, 5, 1, 2}, 19, 2},
                      ConvCase{"K3Stride2Pad1", {5, 7, 6, 3, 2, 1}, 12, 3},
                      ConvCase{"Batch1", {18, 4, 4, 3, 1, 1}, 18, 1},
                      ConvCase{"PadBeyondKernel", {2, 3, 3, 1, 1, 1}, 3, 2},
                      ConvCase{"LargeImage", {2, 32, 32, 3, 1, 1}, 16, 1},
                      ConvCase{"Width7Pad0", {2, 4, 7, 3, 1, 0}, 5, 2},
                      ConvCase{"Width7Pad1", {2, 4, 7, 3, 1, 1}, 5, 2},
                      ConvCase{"Width8Pad0", {2, 4, 8, 3, 1, 0}, 5, 2},
                      ConvCase{"Width8Pad1", {2, 4, 8, 3, 1, 1}, 5, 2},
                      ConvCase{"Width9Pad0", {2, 4, 9, 3, 1, 0}, 5, 2},
                      ConvCase{"Width9Pad1", {2, 4, 9, 3, 1, 1}, 5, 2},
                      ConvCase{"Width16Pad0", {2, 4, 16, 3, 1, 0}, 5, 2},
                      ConvCase{"Width16Pad1", {2, 4, 16, 3, 1, 1}, 5, 2},
                      ConvCase{"Width17Pad0", {2, 4, 17, 3, 1, 0}, 5, 2},
                      ConvCase{"Width17Pad1", {2, 4, 17, 3, 1, 1}, 5, 2},
                      ConvCase{"SameWidth4", {3, 4, 4, 3, 1, 1}, 7, 3},
                      ConvCase{"SameWidth8", {3, 8, 8, 3, 1, 1}, 5, 2},
                      ConvCase{"SameWidth6", {2, 6, 6, 3, 1, 1}, 5, 2},
                      ConvCase{"SameWidth12", {2, 5, 12, 3, 1, 1}, 5, 2},
                      ConvCase{"SameK5Pad2", {2, 8, 8, 5, 1, 2}, 6, 2},
                      ConvCase{"SameBatch1Width8", {4, 8, 8, 3, 1, 1}, 9, 1}),
    [](const ::testing::TestParamInfo<ConvCase>& info) {
      return std::string(info.param.name);
    });

TEST(ConvSpecialValues, MatchIm2colReference) {
  // x, w and grad_out each get +Inf, NaN and -Inf at three spots, so most
  // outputs stay finite, and a subnormal in every 5th value; conv_values
  // already makes every 7th value -0. One padded stride-1 geometry wider
  // than two 8-lane spans, one stride-2 geometry.
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> poison = {
      inf, std::numeric_limits<float>::quiet_NaN(), -inf};
  const auto salt = [&](std::vector<float>& v) {
    const std::size_t step = v.size() / poison.size();
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i % step == step / 2) {
        v[i] = poison[(i / step) % poison.size()];
      } else if (i % 5 == 1) {
        v[i] *= 1e-39f;
      }
    }
  };
  const auto mixed = [](const std::vector<float>& v) {
    const auto finite = std::count_if(v.begin(), v.end(),
                                      [](float f) { return std::isfinite(f); });
    return finite > 0 && finite < static_cast<std::ptrdiff_t>(v.size());
  };
  for (const ConvCase& c : {ConvCase{"Padded", {3, 5, 17, 3, 1, 1}, 6, 2},
                            ConvCase{"Stride2", {3, 7, 9, 3, 2, 1}, 6, 2}}) {
    util::Rng rng(4242);
    ConvData data = conv_data(c, rng);
    salt(data.x);
    salt(data.w);
    salt(data.gout);
    const ConvResult want = reference_conv(c, data);
    ASSERT_TRUE(mixed(want.out) && mixed(want.dx) && mixed(want.wgrad) &&
                mixed(want.bgrad))
        << c.name << ": the specials must leave finite outputs to compare";
    for_each_tier_and_pool([&](const std::string& at) {
      const ConvResult got = run_conv_kernels(c, data);
      EXPECT_TRUE(same_bits_up_to_nan(got.out, want.out))
          << c.name << " forward, " << at;
      EXPECT_TRUE(same_bits_up_to_nan(got.dx, want.dx))
          << c.name << " input gradient, " << at;
      EXPECT_TRUE(same_bits_up_to_nan(got.wgrad, want.wgrad))
          << c.name << " weight gradient, " << at;
      EXPECT_TRUE(same_bits_up_to_nan(got.bgrad, want.bgrad))
          << c.name << " bias gradient, " << at;
    });
  }
}

// ---- max pooling ----

/// The scalar pooling loop: the first tap in (ky, kx) order greater than
/// every earlier one, from −inf; a window with nothing above −inf reports
/// its first element.
void ref_max_pool(const std::vector<float>& x, const Conv2dGeom& g,
                  std::size_t planes, std::vector<float>& out,
                  std::vector<std::size_t>& argmax) {
  const std::size_t oh = g.out_h(), ow = g.out_w(), plane = g.in_h * g.in_w;
  out.assign(planes * oh * ow, 0.0f);
  argmax.assign(out.size(), 0);
  for (std::size_t c = 0, o = 0; c < planes; ++c) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox, ++o) {
        float best = -std::numeric_limits<float>::infinity();
        std::size_t best_idx =
            c * plane + oy * g.stride * g.in_w + ox * g.stride;
        for (std::size_t ky = 0; ky < g.kernel; ++ky) {
          for (std::size_t kx = 0; kx < g.kernel; ++kx) {
            const std::size_t i = c * plane +
                                  (oy * g.stride + ky) * g.in_w +
                                  ox * g.stride + kx;
            if (x[i] > best) {
              best = x[i];
              best_idx = i;
            }
          }
        }
        out[o] = best;
        argmax[o] = best_idx;
      }
    }
  }
}

TEST(MaxPool, MatchesScalarLoopInEveryTier) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  util::Rng rng(99);
  // {in_channels, in_h, in_w, kernel, stride, pad}: the proxies' 2×2/2
  // pools, overlapping windows, rows longer than one register, and
  // outputs off the lane width.
  for (const Conv2dGeom& g :
       {Conv2dGeom{3, 8, 8, 2, 2, 0}, Conv2dGeom{2, 4, 4, 2, 2, 0},
        Conv2dGeom{2, 7, 9, 3, 2, 0}, Conv2dGeom{1, 6, 6, 3, 1, 0},
        Conv2dGeom{2, 5, 21, 2, 1, 0}, Conv2dGeom{1, 9, 9, 3, 3, 0}}) {
    const std::size_t planes = 3 * g.in_channels;
    std::vector<float> x(planes * g.in_h * g.in_w);
    // Few distinct values, so windows tie, plus ±0, ±inf and NaN.
    for (float& v : x) {
      const double u = rng.uniform();
      v = u < 0.05   ? nan
          : u < 0.1  ? -inf
          : u < 0.12 ? inf
          : u < 0.2  ? (u < 0.16 ? -0.0f : 0.0f)
                     : static_cast<float>(std::floor(rng.uniform(-3.0, 3.0)));
    }
    // The first window of plane 0 is all NaN, of plane 1 all −inf.
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      for (std::size_t kx = 0; kx < g.kernel; ++kx) {
        x[ky * g.in_w + kx] = nan;
        x[g.in_h * g.in_w + ky * g.in_w + kx] = -inf;
      }
    }
    std::vector<float> want;
    std::vector<std::size_t> want_idx;
    ref_max_pool(x, g, planes, want, want_idx);
    EXPECT_EQ(want_idx[0], 0u);
    EXPECT_EQ(want_idx[g.out_h() * g.out_w()], g.in_h * g.in_w);
    for_each_tier_and_pool([&](const std::string& at) {
      std::vector<float> out(want.size(), 7.0f);
      std::vector<std::size_t> idx(want.size(), 7);
      max_pool2d_forward(x.data(), g, planes, out.data(), idx.data());
      EXPECT_TRUE(same_bits(out, want)) << at;
      EXPECT_EQ(idx, want_idx) << at;
    });
  }
}

TEST(Init, XavierBounds) {
  util::Rng rng(3);
  Tensor t({100, 100});
  xavier_uniform(t, 100, 100, rng);
  const double bound = std::sqrt(6.0 / 200.0);
  for (float v : t.data()) {
    EXPECT_LE(std::abs(v), bound);
  }
}

TEST(Init, HeNormalStddev) {
  util::Rng rng(3);
  Tensor t({200, 200});
  he_normal(t, 200, rng);
  double sum = 0.0, sq = 0.0;
  for (float v : t.data()) {
    sum += v;
    sq += static_cast<double>(v) * v;
  }
  const double n = static_cast<double>(t.numel());
  const double mean = sum / n;
  const double stddev = std::sqrt(sq / n - mean * mean);
  EXPECT_NEAR(stddev, std::sqrt(2.0 / 200.0), 0.002);
}

TEST(Init, UniformRange) {
  util::Rng rng(5);
  Tensor t({1000});
  uniform_init(t, -0.5f, 0.5f, rng);
  for (float v : t.data()) {
    EXPECT_GE(v, -0.5f);
    EXPECT_LT(v, 0.5f);
  }
}

}  // namespace
}  // namespace osp::tensor
