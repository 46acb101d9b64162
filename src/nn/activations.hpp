// Stateless nonlinearities: ReLU, Tanh, GELU (tanh approximation).
#pragma once

#include "nn/layer.hpp"

namespace osp::nn {

class ReLU : public Layer {
 public:
  explicit ReLU(std::string name) : Layer(std::move(name)) {}
  using Layer::forward;
  tensor::Tensor forward(tensor::Tensor&& input, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;

 private:
  tensor::Tensor input_;  // last training-forward input, until backward
};

class Tanh : public Layer {
 public:
  explicit Tanh(std::string name) : Layer(std::move(name)) {}
  using Layer::forward;
  tensor::Tensor forward(tensor::Tensor&& input, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;

 private:
  tensor::Tensor output_;
};

class Gelu : public Layer {
 public:
  explicit Gelu(std::string name) : Layer(std::move(name)) {}
  using Layer::forward;
  tensor::Tensor forward(tensor::Tensor&& input, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;

 private:
  tensor::Tensor input_;
};

}  // namespace osp::nn
