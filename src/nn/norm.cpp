#include "nn/norm.hpp"

#include <cmath>

#include "util/check.hpp"

namespace osp::nn {

using tensor::Tensor;

LayerNorm::LayerNorm(std::string name, std::size_t features, float eps)
    : Layer(std::move(name)),
      features_(features),
      eps_(eps),
      gamma_({features}, 1.0f),
      beta_({features}),
      ggrad_({features}),
      bgrad_({features}) {
  OSP_CHECK(features > 0, "LayerNorm needs positive feature count");
}

Tensor LayerNorm::forward(Tensor&& input, bool train) {
  OSP_CHECK(input.rank() == 2 && input.dim(1) == features_,
            "LayerNorm input mismatch");
  const std::size_t rows = input.dim(0);
  Tensor out = Tensor::uninitialized({rows, features_});
  Tensor normed = Tensor::uninitialized({rows, features_});
  inv_std_.assign(rows, 0.0f);
  for (std::size_t r = 0; r < rows; ++r) {
    auto in = input.row(r);
    double mean = 0.0;
    for (float v : in) mean += v;
    mean /= static_cast<double>(features_);
    double var = 0.0;
    for (float v : in) var += (v - mean) * (v - mean);
    var /= static_cast<double>(features_);
    const float istd = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
    inv_std_[r] = istd;
    auto nr = normed.row(r);
    auto orow = out.row(r);
    for (std::size_t c = 0; c < features_; ++c) {
      nr[c] = (in[c] - static_cast<float>(mean)) * istd;
      orow[c] = nr[c] * gamma_[c] + beta_[c];
    }
  }
  if (train) normed_ = std::move(normed);
  return out;
}

Tensor LayerNorm::backward(const Tensor& grad_out) {
  const Tensor normed = std::move(normed_);
  OSP_CHECK(normed.rank() == 2, "LayerNorm backward before a training forward");
  const std::size_t rows = normed.dim(0);
  OSP_CHECK(grad_out.rank() == 2 && grad_out.dim(0) == rows &&
                grad_out.dim(1) == features_,
            "LayerNorm grad mismatch");
  Tensor dx = Tensor::uninitialized({rows, features_});
  const auto n = static_cast<float>(features_);
  for (std::size_t r = 0; r < rows; ++r) {
    auto g = grad_out.row(r);
    auto xn = normed.row(r);
    auto d = dx.row(r);
    // Accumulate parameter gradients.
    float sum_gn = 0.0f;   // Σ g_c*gamma_c*xn_c
    float sum_g = 0.0f;    // Σ g_c*gamma_c
    for (std::size_t c = 0; c < features_; ++c) {
      ggrad_[c] += g[c] * xn[c];
      bgrad_[c] += g[c];
      const float gg = g[c] * gamma_[c];
      sum_gn += gg * xn[c];
      sum_g += gg;
    }
    const float istd = inv_std_[r];
    for (std::size_t c = 0; c < features_; ++c) {
      const float gg = g[c] * gamma_[c];
      d[c] = istd * (gg - sum_g / n - xn[c] * sum_gn / n);
    }
  }
  return dx;
}

std::vector<ParamRef> LayerNorm::params() {
  return {{name() + ".gamma", &gamma_, &ggrad_},
          {name() + ".beta", &beta_, &bgrad_}};
}

Dropout::Dropout(std::string name, float rate, util::Rng rng)
    : Layer(std::move(name)), rate_(rate), rng_(rng) {
  OSP_CHECK(rate >= 0.0f && rate < 1.0f, "dropout rate must be in [0, 1)");
}

Tensor Dropout::forward(Tensor&& input, bool train) {
  train_mode_ = train;
  if (!train || rate_ == 0.0f) return std::move(input);
  Tensor out = std::move(input);
  mask_.assign(out.numel(), 0.0f);
  const float keep_scale = 1.0f / (1.0f - rate_);
  auto data = out.data();
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (rng_.bernoulli(rate_)) {
      data[i] = 0.0f;
    } else {
      mask_[i] = keep_scale;
      data[i] *= keep_scale;
    }
  }
  return out;
}

Tensor Dropout::backward(const Tensor& grad_out) {
  if (!train_mode_ || rate_ == 0.0f) return grad_out;
  OSP_CHECK(grad_out.numel() == mask_.size(), "Dropout grad mismatch");
  Tensor dx = grad_out;
  auto d = dx.data();
  for (std::size_t i = 0; i < d.size(); ++i) d[i] *= mask_[i];
  return dx;
}

}  // namespace osp::nn
