// Sequential model container: an ordered list of layers with forward /
// backward chaining and parameter enumeration.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/layer.hpp"

namespace osp::nn {

class Sequential {
 public:
  Sequential() = default;

  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  /// Append a layer; returns a reference for chaining.
  Sequential& add(LayerPtr layer);

  /// Construct and append.
  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  [[nodiscard]] std::size_t num_layers() const { return layers_.size(); }
  [[nodiscard]] Layer& layer(std::size_t i) { return *layers_.at(i); }
  [[nodiscard]] const Layer& layer(std::size_t i) const {
    return *layers_.at(i);
  }

  /// Forward through all layers, each output moved into the next layer.
  /// A caller done with `input` moves it in, and it is not copied.
  [[nodiscard]] tensor::Tensor forward(tensor::Tensor input, bool train);

  /// Backward through all layers in reverse; accumulates parameter grads.
  tensor::Tensor backward(const tensor::Tensor& grad_out);

  /// backward() for training, which discards the model's input gradient:
  /// the same parameter gradients, bit for bit, but the layers in front of
  /// the first layer with parameters do not run, and that layer forms no
  /// input gradient (Layer::backward_params).
  void backward_params(const tensor::Tensor& grad_out);

  /// All trainable parameters in layer order.
  [[nodiscard]] std::vector<ParamRef> params();

  /// Total trainable element count.
  [[nodiscard]] std::size_t num_params();

  void zero_grad();

 private:
  std::vector<LayerPtr> layers_;
  std::size_t first_trainable_ = SIZE_MAX;  // first layer with parameters
};

}  // namespace osp::nn
