#include "nn/activations.hpp"

#include <cmath>

#include "util/check.hpp"
#include "util/simd.hpp"

namespace osp::nn {

using tensor::Tensor;

Tensor ReLU::forward(Tensor&& input, bool train) {
  Tensor out = Tensor::uninitialized(input.shape());
  util::simd::kernels().relu(input.raw(), out.raw(), out.numel());
  if (train) input_ = std::move(input);
  return out;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  const Tensor input = std::move(input_);
  OSP_CHECK(grad_out.numel() == input.numel(), "ReLU grad size mismatch");
  Tensor dx = Tensor::uninitialized(grad_out.shape());
  util::simd::kernels().relu_grad(input.raw(), grad_out.raw(), dx.raw(),
                                  dx.numel());
  return dx;
}

Tensor Tanh::forward(Tensor&& input, bool /*train*/) {
  for (float& v : input.data()) v = std::tanh(v);
  output_ = input;
  return std::move(input);
}

Tensor Tanh::backward(const Tensor& grad_out) {
  OSP_CHECK(grad_out.numel() == output_.numel(), "Tanh grad size mismatch");
  Tensor dx = grad_out;
  auto y = output_.data();
  auto d = dx.data();
  for (std::size_t i = 0; i < d.size(); ++i) d[i] *= 1.0f - y[i] * y[i];
  return dx;
}

namespace {
// tanh-approximation GELU and its derivative.
constexpr float kSqrt2OverPi = 0.7978845608028654f;
constexpr float kGeluCoef = 0.044715f;

float gelu_scalar(float x) {
  const float inner = kSqrt2OverPi * (x + kGeluCoef * x * x * x);
  return 0.5f * x * (1.0f + std::tanh(inner));
}

float gelu_grad_scalar(float x) {
  const float x3 = x * x * x;
  const float inner = kSqrt2OverPi * (x + kGeluCoef * x3);
  const float t = std::tanh(inner);
  const float sech2 = 1.0f - t * t;
  const float dinner = kSqrt2OverPi * (1.0f + 3.0f * kGeluCoef * x * x);
  return 0.5f * (1.0f + t) + 0.5f * x * sech2 * dinner;
}
}  // namespace

Tensor Gelu::forward(Tensor&& input, bool /*train*/) {
  input_ = input;
  for (float& v : input.data()) v = gelu_scalar(v);
  return std::move(input);
}

Tensor Gelu::backward(const Tensor& grad_out) {
  OSP_CHECK(grad_out.numel() == input_.numel(), "GELU grad size mismatch");
  Tensor dx = grad_out;
  auto in = input_.data();
  auto d = dx.data();
  for (std::size_t i = 0; i < d.size(); ++i) d[i] *= gelu_grad_scalar(in[i]);
  return dx;
}

}  // namespace osp::nn
