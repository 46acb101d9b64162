#include "nn/qa_head.hpp"

#include "tensor/init.hpp"
#include "util/check.hpp"

namespace osp::nn {

using tensor::Tensor;

SpanHead::SpanHead(std::string name, std::size_t dim, util::Rng& rng)
    : Layer(std::move(name)),
      dim_(dim),
      weight_({2, dim}),
      bias_({2}),
      wgrad_({2, dim}),
      bgrad_({2}) {
  OSP_CHECK(dim > 0, "SpanHead needs positive dim");
  tensor::xavier_uniform(weight_, dim, 2, rng);
}

Tensor SpanHead::forward(Tensor&& input, bool train) {
  OSP_CHECK(input.rank() == 3 && input.dim(2) == dim_,
            "SpanHead expects [B, L, D]");
  const std::size_t batch = input.dim(0), seq = input.dim(1);
  Tensor out({batch, 2 * seq});
  const float* pi = input.raw();
  float* po = out.raw();
  const float* ws = weight_.raw();            // start row
  const float* we = weight_.raw() + dim_;     // end row
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t t = 0; t < seq; ++t) {
      const float* x = pi + (b * seq + t) * dim_;
      float s = bias_[0], ev = bias_[1];
      for (std::size_t d = 0; d < dim_; ++d) {
        s += ws[d] * x[d];
        ev += we[d] * x[d];
      }
      po[b * 2 * seq + t] = s;
      po[b * 2 * seq + seq + t] = ev;
    }
  }
  if (train) input_ = std::move(input);
  return out;
}

Tensor SpanHead::backward(const Tensor& grad_out) {
  const Tensor input = std::move(input_);
  OSP_CHECK(input.rank() == 3, "SpanHead backward before a training forward");
  const std::size_t batch = input.dim(0), seq = input.dim(1);
  OSP_CHECK(grad_out.rank() == 2 && grad_out.dim(0) == batch &&
                grad_out.dim(1) == 2 * seq,
            "SpanHead grad mismatch");
  Tensor dx({batch, seq, dim_});
  const float* pi = input.raw();
  const float* pg = grad_out.raw();
  float* pdx = dx.raw();
  const float* ws = weight_.raw();
  const float* we = weight_.raw() + dim_;
  float* gws = wgrad_.raw();
  float* gwe = wgrad_.raw() + dim_;
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t t = 0; t < seq; ++t) {
      const float gs = pg[b * 2 * seq + t];
      const float ge = pg[b * 2 * seq + seq + t];
      const float* x = pi + (b * seq + t) * dim_;
      float* d = pdx + (b * seq + t) * dim_;
      bgrad_[0] += gs;
      bgrad_[1] += ge;
      for (std::size_t j = 0; j < dim_; ++j) {
        gws[j] += gs * x[j];
        gwe[j] += ge * x[j];
        d[j] = gs * ws[j] + ge * we[j];
      }
    }
  }
  return dx;
}

std::vector<ParamRef> SpanHead::params() {
  return {{name() + ".weight", &weight_, &wgrad_},
          {name() + ".bias", &bias_, &bgrad_}};
}

}  // namespace osp::nn
