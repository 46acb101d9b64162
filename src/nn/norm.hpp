// LayerNorm over the last dimension of a rank-2 tensor, with learned
// gain/bias. Used by the MLP and attention proxy models (BatchNorm is
// deliberately avoided: its cross-sample statistics interact with
// data-parallel sharding in ways orthogonal to the paper).
#pragma once

#include "nn/layer.hpp"

namespace osp::nn {

class LayerNorm : public Layer {
 public:
  LayerNorm(std::string name, std::size_t features, float eps = 1e-5f);

  using Layer::forward;
  tensor::Tensor forward(tensor::Tensor&& input, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  std::vector<ParamRef> params() override;

 private:
  std::size_t features_;
  float eps_;
  tensor::Tensor gamma_, beta_;
  tensor::Tensor ggrad_, bgrad_;
  tensor::Tensor normed_;    // training forward's normalized input, until backward
  std::vector<float> inv_std_;  // per-row 1/sqrt(var+eps)
};

class Dropout : public Layer {
 public:
  /// `rate` is the drop probability; scaling uses inverted dropout.
  Dropout(std::string name, float rate, util::Rng rng);

  using Layer::forward;
  tensor::Tensor forward(tensor::Tensor&& input, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;

 private:
  float rate_;
  util::Rng rng_;
  std::vector<float> mask_;
  bool train_mode_ = false;
};

}  // namespace osp::nn
