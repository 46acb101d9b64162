// Layer interface for the proxy-model stack.
//
// Layers own their parameters and gradient accumulators. backward() both
// returns the input gradient and accumulates parameter gradients, mirroring
// the classic define-by-layer design. The synchronization code never touches
// layers directly: it sees flat per-layer parameter/gradient blocks exposed
// through ParamRef (see registry.hpp).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace osp::nn {

/// Non-owning reference to one parameter tensor and its gradient.
struct ParamRef {
  std::string name;          ///< e.g. "fc1.weight"
  tensor::Tensor* value = nullptr;
  tensor::Tensor* grad = nullptr;

  [[nodiscard]] std::size_t numel() const { return value->numel(); }
};

class Layer {
 public:
  explicit Layer(std::string name) : name_(std::move(name)) {}
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Forward pass. `train` toggles train-time behaviour (dropout).
  /// Layers may cache activations needed by backward().
  virtual tensor::Tensor forward(const tensor::Tensor& input, bool train) = 0;

  /// Backward pass: takes dL/d(output), returns dL/d(input), and
  /// accumulates (+=) parameter gradients. Must follow a forward() call.
  virtual tensor::Tensor backward(const tensor::Tensor& grad_out) = 0;

  /// backward() without dL/d(input): accumulates the same parameter
  /// gradients, bit for bit. Layers whose input gradient costs work of its
  /// own skip it; the rest run backward() and drop its result.
  virtual void backward_params(const tensor::Tensor& grad_out) {
    (void)backward(grad_out);
  }

  /// Trainable parameters; empty for stateless layers.
  virtual std::vector<ParamRef> params() { return {}; }

  /// Reset accumulated parameter gradients to zero.
  void zero_grad();

 private:
  std::string name_;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace osp::nn
