// Single-head self-attention block with residual connection — the
// transformer-encoder core of the BERTbase proxy model.
//
// Input/output: rank-3 [batch, seq_len, dim]. The block computes
//   Y = (softmax(QKᵀ/√d)·V)·Woᵀ + X
// with Q = X·Wqᵀ, K = X·Wkᵀ, V = X·Wvᵀ (all weights [dim, dim]).
//
// The projections are whole-batch matmuls; the per-sequence products
// (Q_b·K_bᵀ, A_b·V_b and their gradients) are panel GEMM calls that read
// and write rows of the [B·L, ·] buffers in place. Every buffer is owned
// by the layer and reused while the batch shape stays the same.
#pragma once

#include "nn/layer.hpp"

namespace osp::nn {

class SelfAttention : public Layer {
 public:
  SelfAttention(std::string name, std::size_t dim, util::Rng& rng);

  tensor::Tensor forward(const tensor::Tensor& input, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  std::vector<ParamRef> params() override;

 private:
  std::size_t dim_;
  tensor::Tensor wq_, wk_, wv_, wo_;          // [dim, dim]
  tensor::Tensor wq_g_, wk_g_, wv_g_, wo_g_;
  // Forward caches.
  tensor::Tensor xf_;             // [B*L, D]
  tensor::Tensor q_, k_, v_, h_;  // [B*L, D]
  tensor::Tensor attn_;           // [B*L, L]: softmax rows, batch by batch
  // Scratch.
  tensor::Tensor kvt_;            // [D, B*L]: Kᵀ in forward, Vᵀ in backward
  tensor::Tensor dh_, dq_, dk_, dv_;  // [B*L, D]
  tensor::Tensor ds_;             // [L, L]
  std::size_t batch_ = 0, seq_ = 0;
};

}  // namespace osp::nn
