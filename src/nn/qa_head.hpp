// Extractive-QA span head: the BERT-style per-position projection.
//
// Input [batch, seq, dim] → output [batch, 2·seq]: position t's start logit
// is w_s·x_t + b_s and its end logit w_e·x_t + b_e, with the output laid out
// as [all start logits | all end logits] to match span_cross_entropy.
#pragma once

#include "nn/layer.hpp"

namespace osp::nn {

class SpanHead : public Layer {
 public:
  SpanHead(std::string name, std::size_t dim, util::Rng& rng);

  using Layer::forward;
  tensor::Tensor forward(tensor::Tensor&& input, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  std::vector<ParamRef> params() override;

 private:
  std::size_t dim_;
  tensor::Tensor weight_;  // [2, dim]: row 0 = start, row 1 = end
  tensor::Tensor bias_;    // [2]
  tensor::Tensor wgrad_;
  tensor::Tensor bgrad_;
  tensor::Tensor input_;   // training forward's [B, L, D], until backward
};

}  // namespace osp::nn
