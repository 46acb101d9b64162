#include "nn/sequential.hpp"

#include "util/check.hpp"

namespace osp::nn {

Sequential& Sequential::add(LayerPtr layer) {
  OSP_CHECK(layer != nullptr, "null layer");
  if (first_trainable_ == SIZE_MAX && !layer->params().empty()) {
    first_trainable_ = layers_.size();
  }
  layers_.push_back(std::move(layer));
  return *this;
}

tensor::Tensor Sequential::forward(const tensor::Tensor& input, bool train) {
  OSP_CHECK(!layers_.empty(), "empty model");
  tensor::Tensor x = input;
  for (auto& layer : layers_) x = layer->forward(x, train);
  return x;
}

tensor::Tensor Sequential::backward(const tensor::Tensor& grad_out) {
  OSP_CHECK(!layers_.empty(), "empty model");
  tensor::Tensor g = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

void Sequential::backward_params(const tensor::Tensor& grad_out) {
  OSP_CHECK(!layers_.empty(), "empty model");
  if (first_trainable_ == SIZE_MAX) return;
  tensor::Tensor g = grad_out;
  for (std::size_t i = layers_.size() - 1; i > first_trainable_; --i) {
    g = layers_[i]->backward(g);
  }
  layers_[first_trainable_]->backward_params(g);
}

std::vector<ParamRef> Sequential::params() {
  std::vector<ParamRef> out;
  for (auto& layer : layers_) {
    for (ParamRef& p : layer->params()) out.push_back(p);
  }
  return out;
}

std::size_t Sequential::num_params() {
  std::size_t n = 0;
  for (const ParamRef& p : params()) n += p.numel();
  return n;
}

void Sequential::zero_grad() {
  for (auto& layer : layers_) layer->zero_grad();
}

}  // namespace osp::nn
