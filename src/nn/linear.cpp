#include "nn/linear.hpp"

#include "tensor/init.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace osp::nn {

using tensor::Tensor;

Linear::Linear(std::string name, std::size_t in_features,
               std::size_t out_features, util::Rng& rng, bool bias)
    : Layer(std::move(name)),
      in_(in_features),
      out_(out_features),
      has_bias_(bias),
      weight_({out_features, in_features}),
      bias_({out_features}),
      wgrad_({out_features, in_features}),
      bgrad_({out_features}) {
  OSP_CHECK(in_ > 0 && out_ > 0, "Linear needs positive dimensions");
  tensor::xavier_uniform(weight_, in_, out_, rng);
}

Tensor Linear::forward(Tensor&& input, bool train) {
  OSP_CHECK(input.rank() == 2 && input.dim(1) == in_,
            "Linear input shape mismatch");
  Tensor out = Tensor::uninitialized({input.dim(0), out_});
  tensor::matmul_nt(input, weight_, out);  // [B,in]·[out,in]ᵀ = [B,out]
  if (has_bias_) tensor::add_bias_rows(out, bias_.data());
  if (train) input_ = std::move(input);
  return out;
}

void Linear::backward_params(const Tensor& grad_out) {
  const Tensor input = std::move(input_);
  OSP_CHECK(grad_out.rank() == 2 && grad_out.dim(1) == out_,
            "Linear grad shape mismatch");
  OSP_CHECK(input.rank() == 2 && grad_out.dim(0) == input.dim(0),
            "batch mismatch in backward");
  // dW += gᵀ·x : [out,B]·[B,in] = [out,in]
  tensor::matmul_tn(grad_out, input, wgrad_, /*accumulate=*/true);
  if (has_bias_) tensor::sum_rows(grad_out, bgrad_.data());
}

Tensor Linear::backward(const Tensor& grad_out) {
  backward_params(grad_out);
  // dx = g·W : [B,out]·[out,in] = [B,in]
  Tensor dx = Tensor::uninitialized({grad_out.dim(0), in_});
  tensor::matmul(grad_out, weight_, dx);
  return dx;
}

std::vector<ParamRef> Linear::params() {
  std::vector<ParamRef> out;
  out.push_back({name() + ".weight", &weight_, &wgrad_});
  if (has_bias_) out.push_back({name() + ".bias", &bias_, &bgrad_});
  return out;
}

}  // namespace osp::nn
