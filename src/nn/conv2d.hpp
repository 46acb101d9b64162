// 2-D convolution over NCHW tensors via the implicit-GEMM kernels in
// tensor/conv.hpp.
#pragma once

#include "nn/layer.hpp"
#include "tensor/ops.hpp"

namespace osp::nn {

class Conv2d : public Layer {
 public:
  /// Square kernel; weight stored [out_channels, in_channels*k*k].
  Conv2d(std::string name, std::size_t in_channels, std::size_t out_channels,
         std::size_t in_h, std::size_t in_w, std::size_t kernel,
         std::size_t stride, std::size_t pad, util::Rng& rng);

  tensor::Tensor forward(const tensor::Tensor& input, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  void backward_params(const tensor::Tensor& grad_out) override;
  std::vector<ParamRef> params() override;

  [[nodiscard]] const tensor::Conv2dGeom& geometry() const { return geom_; }
  [[nodiscard]] std::size_t out_channels() const { return out_channels_; }

 private:
  tensor::Conv2dGeom geom_;
  std::size_t out_channels_;
  tensor::Tensor weight_;  // [out_c, C*k*k]
  tensor::Tensor bias_;    // [out_c]
  tensor::Tensor wgrad_;
  tensor::Tensor bgrad_;
  tensor::Tensor input_;  // last training-forward input, for dW
};

class MaxPool2d : public Layer {
 public:
  MaxPool2d(std::string name, std::size_t channels, std::size_t in_h,
            std::size_t in_w, std::size_t kernel, std::size_t stride);

  tensor::Tensor forward(const tensor::Tensor& input, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;

 private:
  std::size_t channels_, in_h_, in_w_, kernel_, stride_;
  std::size_t out_h_, out_w_;
  tensor::Shape in_shape_;
  std::vector<std::size_t> argmax_;  // flat input index per output element
};

/// Reshapes NCHW activations to [batch, C*H*W] (and back in backward).
class Flatten : public Layer {
 public:
  explicit Flatten(std::string name) : Layer(std::move(name)) {}
  tensor::Tensor forward(const tensor::Tensor& input, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;

 private:
  tensor::Shape in_shape_;
};

}  // namespace osp::nn
