#include "nn/conv2d.hpp"

#include "tensor/conv.hpp"
#include "tensor/init.hpp"
#include "util/check.hpp"

namespace osp::nn {

using tensor::Tensor;

Conv2d::Conv2d(std::string name, std::size_t in_channels,
               std::size_t out_channels, std::size_t in_h, std::size_t in_w,
               std::size_t kernel, std::size_t stride, std::size_t pad,
               util::Rng& rng)
    : Layer(std::move(name)),
      geom_{in_channels, in_h, in_w, kernel, stride, pad},
      out_channels_(out_channels),
      weight_({out_channels, geom_.patch_len()}),
      bias_({out_channels}),
      wgrad_({out_channels, geom_.patch_len()}),
      bgrad_({out_channels}) {
  OSP_CHECK(out_channels > 0, "Conv2d needs positive out_channels");
  tensor::he_normal(weight_, geom_.patch_len(), rng);
}

Tensor Conv2d::forward(const Tensor& input, bool train) {
  OSP_CHECK(input.rank() == 4, "Conv2d expects NCHW input");
  OSP_CHECK(input.dim(1) == geom_.in_channels && input.dim(2) == geom_.in_h &&
                input.dim(3) == geom_.in_w,
            "Conv2d input geometry mismatch");
  const std::size_t batch = input.dim(0);
  Tensor out({batch, out_channels_, geom_.out_h(), geom_.out_w()});
  tensor::conv2d_forward(input.raw(), weight_.raw(), bias_.raw(), geom_,
                         out_channels_, batch, out.raw());
  if (train) input_ = input;
  return out;
}

void Conv2d::backward_params(const Tensor& grad_out) {
  OSP_CHECK(input_.rank() == 4, "Conv2d backward before a training forward");
  const std::size_t batch = input_.dim(0);
  OSP_CHECK(grad_out.rank() == 4 && grad_out.dim(0) == batch &&
                grad_out.dim(1) == out_channels_ &&
                grad_out.dim(2) == geom_.out_h() &&
                grad_out.dim(3) == geom_.out_w(),
            "Conv2d grad shape mismatch");
  tensor::conv2d_backward_weight(grad_out.raw(), input_.raw(), geom_,
                                 out_channels_, batch, wgrad_.raw(),
                                 bgrad_.raw());
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  backward_params(grad_out);
  Tensor dx(input_.shape());
  tensor::conv2d_backward_data(grad_out.raw(), weight_.raw(), geom_,
                               out_channels_, input_.dim(0), dx.raw());
  return dx;
}

std::vector<ParamRef> Conv2d::params() {
  return {{name() + ".weight", &weight_, &wgrad_},
          {name() + ".bias", &bias_, &bgrad_}};
}

MaxPool2d::MaxPool2d(std::string name, std::size_t channels, std::size_t in_h,
                     std::size_t in_w, std::size_t kernel, std::size_t stride)
    : Layer(std::move(name)),
      channels_(channels),
      in_h_(in_h),
      in_w_(in_w),
      kernel_(kernel),
      stride_(stride),
      out_h_((in_h - kernel) / stride + 1),
      out_w_((in_w - kernel) / stride + 1) {
  OSP_CHECK(kernel > 0 && stride > 0, "MaxPool2d invalid geometry");
  OSP_CHECK(in_h >= kernel && in_w >= kernel, "pool kernel larger than input");
}

Tensor MaxPool2d::forward(const Tensor& input, bool /*train*/) {
  OSP_CHECK(input.rank() == 4 && input.dim(1) == channels_ &&
                input.dim(2) == in_h_ && input.dim(3) == in_w_,
            "MaxPool2d input mismatch");
  const std::size_t batch = input.dim(0);
  in_shape_ = input.shape();
  Tensor out({batch, channels_, out_h_, out_w_});
  argmax_.resize(out.numel());
  tensor::max_pool2d_forward(input.raw(),
                             {channels_, in_h_, in_w_, kernel_, stride_, 0},
                             batch * channels_, out.raw(), argmax_.data());
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  OSP_CHECK(grad_out.numel() == argmax_.size(), "MaxPool2d grad mismatch");
  Tensor dx(in_shape_);
  float* pdx = dx.raw();
  const float* pg = grad_out.raw();
  for (std::size_t i = 0; i < argmax_.size(); ++i) {
    pdx[argmax_[i]] += pg[i];
  }
  return dx;
}

Tensor Flatten::forward(const Tensor& input, bool /*train*/) {
  OSP_CHECK(input.rank() >= 2, "Flatten expects batched input");
  in_shape_ = input.shape();
  const std::size_t batch = input.dim(0);
  return input.reshaped({batch, input.numel() / batch});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  return grad_out.reshaped(in_shape_);
}

}  // namespace osp::nn
