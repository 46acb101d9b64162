// Fully-connected layer: y = x·Wᵀ + b with W stored [out, in].
#pragma once

#include "nn/layer.hpp"

namespace osp::nn {

class Linear : public Layer {
 public:
  Linear(std::string name, std::size_t in_features, std::size_t out_features,
         util::Rng& rng, bool bias = true);

  using Layer::forward;
  tensor::Tensor forward(tensor::Tensor&& input, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  void backward_params(const tensor::Tensor& grad_out) override;
  std::vector<ParamRef> params() override;

  [[nodiscard]] std::size_t in_features() const { return in_; }
  [[nodiscard]] std::size_t out_features() const { return out_; }

 private:
  std::size_t in_;
  std::size_t out_;
  bool has_bias_;
  tensor::Tensor weight_;   // [out, in]
  tensor::Tensor bias_;     // [out]
  tensor::Tensor wgrad_;
  tensor::Tensor bgrad_;
  tensor::Tensor input_;    // last training-forward input, until backward
};

}  // namespace osp::nn
