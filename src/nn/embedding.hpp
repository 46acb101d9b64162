// Token embedding lookup for the NLP proxy model.
//
// Input: rank-2 [batch, seq_len] of token ids stored as floats (the tensor
// library is float-only); output: rank-3 [batch, seq_len, dim]. backward()
// scatter-adds into the embedding gradient and returns a zero tensor, since
// token ids carry no gradient.
#pragma once

#include "nn/layer.hpp"

namespace osp::nn {

class Embedding : public Layer {
 public:
  Embedding(std::string name, std::size_t vocab, std::size_t dim,
            util::Rng& rng);

  tensor::Tensor forward(const tensor::Tensor& input, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  void backward_params(const tensor::Tensor& grad_out) override;
  std::vector<ParamRef> params() override;

  [[nodiscard]] std::size_t vocab() const { return vocab_; }
  [[nodiscard]] std::size_t dim() const { return dim_; }

 private:
  std::size_t vocab_;
  std::size_t dim_;
  tensor::Tensor table_;  // [vocab, dim]
  tensor::Tensor tgrad_;
  std::vector<std::size_t> last_ids_;
  tensor::Shape in_shape_;
};

}  // namespace osp::nn
