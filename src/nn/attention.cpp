#include "nn/attention.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/gemm.hpp"
#include "tensor/init.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace osp::nn {

using tensor::Tensor;

SelfAttention::SelfAttention(std::string name, std::size_t dim,
                             util::Rng& rng)
    : Layer(std::move(name)),
      dim_(dim),
      wq_({dim, dim}),
      wk_({dim, dim}),
      wv_({dim, dim}),
      wo_({dim, dim}),
      wq_g_({dim, dim}),
      wk_g_({dim, dim}),
      wv_g_({dim, dim}),
      wo_g_({dim, dim}) {
  OSP_CHECK(dim > 0, "attention dim must be positive");
  tensor::xavier_uniform(wq_, dim, dim, rng);
  tensor::xavier_uniform(wk_, dim, dim, rng);
  tensor::xavier_uniform(wv_, dim, dim, rng);
  tensor::xavier_uniform(wo_, dim, dim, rng);
}

namespace {
/// Gives `t` the shape `shape`, reallocating only when it changes. The
/// contents are left for the caller to overwrite.
void fit(Tensor& t, tensor::Shape shape) {
  if (t.shape() != shape) t = Tensor::uninitialized(std::move(shape));
}
}  // namespace

Tensor SelfAttention::forward(Tensor&& input, bool /*train*/) {
  OSP_CHECK(input.rank() == 3 && input.dim(2) == dim_,
            "SelfAttention expects [B, L, D]");
  batch_ = input.dim(0);
  seq_ = input.dim(1);
  const std::size_t n = batch_ * seq_, L = seq_, D = dim_;

  fit(xf_, {n, D});
  std::copy(input.data().begin(), input.data().end(), xf_.raw());
  for (Tensor* t : {&q_, &k_, &v_, &h_}) fit(*t, {n, D});
  tensor::matmul_nt(xf_, wq_, q_);
  tensor::matmul_nt(xf_, wk_, k_);
  tensor::matmul_nt(xf_, wv_, v_);

  // S_b = Q_b·K_bᵀ: K_bᵀ is columns [r0, r0 + L) of Kᵀ.
  fit(kvt_, {D, n});
  tensor::transpose(k_, kvt_);
  fit(attn_, {n, L});
  for (std::size_t r0 = 0; r0 < n; r0 += L) {
    tensor::gemm({L, L, D, q_.raw() + r0 * D, D, 1, kvt_.raw() + r0, n,
                  attn_.raw() + r0 * L, L});
  }
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(D));
  for (float& s : attn_.data()) s *= inv_sqrt_d;
  tensor::softmax_rows(attn_, attn_);
  // H_b = A_b·V_b.
  for (std::size_t r0 = 0; r0 < n; r0 += L) {
    tensor::gemm({L, D, L, attn_.raw() + r0 * L, L, 1, v_.raw() + r0 * D, D,
                  h_.raw() + r0 * D, D});
  }

  // Y = X + H·Woᵀ: the residual is the accumulate epilogue's C.
  Tensor y = std::move(input).reshaped({n, D});
  tensor::matmul_nt(h_, wo_, y, /*accumulate=*/true);
  y.reshape({batch_, seq_, D});
  return y;
}

Tensor SelfAttention::backward(const Tensor& grad_out) {
  OSP_CHECK(grad_out.rank() == 3 && grad_out.dim(0) == batch_ &&
                grad_out.dim(1) == seq_ && grad_out.dim(2) == dim_,
            "SelfAttention grad mismatch");
  const std::size_t n = batch_ * seq_, L = seq_, D = dim_;
  // dx starts as gy, the residual path; it is read as gy until the
  // projections below accumulate into it.
  Tensor dx = grad_out;
  dx.reshape({n, D});

  // Y = H·Woᵀ + X  →  dH = gy·Wo ; dWo += gyᵀ·H.
  for (Tensor* t : {&dh_, &dq_, &dk_, &dv_}) fit(*t, {n, D});
  tensor::matmul(dx, wo_, dh_);
  tensor::matmul_tn(dx, h_, wo_g_, /*accumulate=*/true);

  fit(kvt_, {D, n});
  tensor::transpose(v_, kvt_);
  fit(ds_, {L, L});
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(D));
  for (std::size_t r0 = 0; r0 < n; r0 += L) {
    const float* a = attn_.raw() + r0 * L;
    // H_b = A·V_b → dA = dH_b·V_bᵀ ; dV_b = Aᵀ·dH_b.
    tensor::gemm({L, L, D, dh_.raw() + r0 * D, D, 1, kvt_.raw() + r0, n,
                  ds_.raw(), L});
    tensor::gemm({L, D, L, a, 1, L, dh_.raw() + r0 * D, D, dv_.raw() + r0 * D,
                  D});
    // Softmax backward per row, in place over dA:
    // ds_ij = a_ij (da_ij − Σ_k da_ik a_ik).
    for (std::size_t i = 0; i < L; ++i) {
      const float* arow = a + i * L;
      float* row = ds_.raw() + i * L;
      float dot = 0.0f;
      for (std::size_t j = 0; j < L; ++j) dot += row[j] * arow[j];
      for (std::size_t j = 0; j < L; ++j) {
        row[j] = arow[j] * (row[j] - dot) * inv_sqrt_d;
      }
    }
    // S = Q·Kᵀ (scaled) → dQ_b = dS·K_b ; dK_b = dSᵀ·Q_b.
    tensor::gemm({L, D, L, ds_.raw(), L, 1, k_.raw() + r0 * D, D,
                  dq_.raw() + r0 * D, D});
    tensor::gemm({L, D, L, ds_.raw(), 1, L, q_.raw() + r0 * D, D,
                  dk_.raw() + r0 * D, D});
  }

  // Projections: Q = X·Wqᵀ → dX += dQ·Wq ; dWq += dQᵀ·X (same for K, V).
  tensor::matmul(dq_, wq_, dx, /*accumulate=*/true);
  tensor::matmul_tn(dq_, xf_, wq_g_, /*accumulate=*/true);
  tensor::matmul(dk_, wk_, dx, /*accumulate=*/true);
  tensor::matmul_tn(dk_, xf_, wk_g_, /*accumulate=*/true);
  tensor::matmul(dv_, wv_, dx, /*accumulate=*/true);
  tensor::matmul_tn(dv_, xf_, wv_g_, /*accumulate=*/true);

  dx.reshape({batch_, seq_, D});
  return dx;
}

std::vector<ParamRef> SelfAttention::params() {
  return {{name() + ".wq", &wq_, &wq_g_},
          {name() + ".wk", &wk_, &wk_g_},
          {name() + ".wv", &wv_, &wv_g_},
          {name() + ".wo", &wo_, &wo_g_}};
}

}  // namespace osp::nn
