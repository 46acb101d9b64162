#include "nn/layer.hpp"

#include <utility>

namespace osp::nn {

tensor::Tensor Layer::forward(tensor::Tensor&& input, bool train) {
  return forward(std::as_const(input), train);
}

tensor::Tensor Layer::forward(const tensor::Tensor& input, bool train) {
  return forward(tensor::Tensor(input), train);
}

void Layer::zero_grad() {
  for (ParamRef& p : params()) {
    if (p.grad != nullptr) p.grad->zero();
  }
}

}  // namespace osp::nn
