#include "nn/embedding.hpp"

#include <cmath>

#include "tensor/init.hpp"
#include "util/check.hpp"

namespace osp::nn {

using tensor::Tensor;

Embedding::Embedding(std::string name, std::size_t vocab, std::size_t dim,
                     util::Rng& rng)
    : Layer(std::move(name)),
      vocab_(vocab),
      dim_(dim),
      table_({vocab, dim}),
      tgrad_({vocab, dim}) {
  OSP_CHECK(vocab > 0 && dim > 0, "Embedding needs positive sizes");
  tensor::normal_init(table_, 0.0f, 0.02f, rng);
}

Tensor Embedding::forward(Tensor&& input, bool /*train*/) {
  OSP_CHECK(input.rank() == 2, "Embedding expects [batch, seq] ids");
  const std::size_t batch = input.dim(0), seq = input.dim(1);
  in_shape_ = input.shape();
  last_ids_.assign(batch * seq, 0);
  Tensor out({batch, seq, dim_});
  float* po = out.raw();
  const float* pi = input.raw();
  const float* pt = table_.raw();
  for (std::size_t i = 0; i < batch * seq; ++i) {
    const auto id = static_cast<std::size_t>(std::lround(pi[i]));
    OSP_CHECK(id < vocab_, "token id out of vocabulary");
    last_ids_[i] = id;
    const float* row = pt + id * dim_;
    float* dst = po + i * dim_;
    for (std::size_t d = 0; d < dim_; ++d) dst[d] = row[d];
  }
  return out;
}

Tensor Embedding::backward(const Tensor& grad_out) {
  backward_params(grad_out);
  return Tensor(in_shape_);
}

void Embedding::backward_params(const Tensor& grad_out) {
  OSP_CHECK(grad_out.rank() == 3 && grad_out.dim(2) == dim_,
            "Embedding grad mismatch");
  OSP_CHECK(grad_out.dim(0) * grad_out.dim(1) == last_ids_.size(),
            "Embedding grad count mismatch");
  const float* pg = grad_out.raw();
  float* pt = tgrad_.raw();
  for (std::size_t i = 0; i < last_ids_.size(); ++i) {
    float* dst = pt + last_ids_[i] * dim_;
    const float* src = pg + i * dim_;
    for (std::size_t d = 0; d < dim_; ++d) dst[d] += src[d];
  }
}

std::vector<ParamRef> Embedding::params() {
  return {{name() + ".table", &table_, &tgrad_}};
}

}  // namespace osp::nn
