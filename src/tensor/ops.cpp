#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "tensor/gemm.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace osp::tensor {

namespace {

void check_matrix(const Tensor& t) {
  OSP_CHECK(t.rank() == 2, "matmul operand must be rank-2");
}

Epilogue write_mode(bool accumulate) {
  return accumulate ? Epilogue::kAccumulate : Epilogue::kStore;
}

}  // namespace

void matmul(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
  check_matrix(a);
  check_matrix(b);
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  OSP_CHECK(b.dim(0) == k, "matmul inner dimension mismatch");
  OSP_CHECK(c.rank() == 2 && c.dim(0) == m && c.dim(1) == n,
            "matmul output shape mismatch");
  parallel_gemm({m, n, k, a.raw(), k, 1, b.raw(), n, c.raw(), n, nullptr,
                 write_mode(accumulate)});
}

void matmul_tn(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
  check_matrix(a);
  check_matrix(b);
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  OSP_CHECK(b.dim(0) == m, "matmul_tn outer dimension mismatch");
  OSP_CHECK(c.rank() == 2 && c.dim(0) == k && c.dim(1) == n,
            "matmul_tn output shape mismatch");
  // Row i of C reads column i of A: row stride 1, column stride k.
  parallel_gemm({k, n, m, a.raw(), 1, k, b.raw(), n, c.raw(), n, nullptr,
                 write_mode(accumulate)});
}

void matmul_nt(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
  check_matrix(a);
  check_matrix(b);
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  OSP_CHECK(b.dim(1) == k, "matmul_nt inner dimension mismatch");
  OSP_CHECK(c.rank() == 2 && c.dim(0) == m && c.dim(1) == n,
            "matmul_nt output shape mismatch");
  thread_local std::vector<float> bt;
  bt.resize(k * n);
  const float* pb = b.raw();
  for (std::size_t p = 0; p < k; ++p) {
    float* row = bt.data() + p * n;
    for (std::size_t j = 0; j < n; ++j) row[j] = pb[j * k + p];
  }
  parallel_gemm({m, n, k, a.raw(), k, 1, bt.data(), n, c.raw(), n, nullptr,
                 write_mode(accumulate)});
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
