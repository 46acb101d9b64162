#include "tensor/tensor.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "util/check.hpp"

// Builds with AddressSanitizer, in GCC's and Clang's spelling.
#if defined(__SANITIZE_ADDRESS__)
#define OSP_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define OSP_ASAN 1
#endif
#endif

namespace osp::tensor {

std::size_t shape_numel(const Shape& shape) {
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return n;
}

std::string shape_to_string(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i != 0) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), data_(shape_numel(shape_), 0.0f) {}

Tensor::Tensor(Shape shape, float value)
    : shape_(std::move(shape)), data_(shape_numel(shape_), value) {}

Tensor::Tensor(Shape shape, const std::vector<float>& data)
    : shape_(std::move(shape)), data_(data.begin(), data.end()) {
  OSP_CHECK(data_.size() == shape_numel(shape_),
            "data size does not match shape");
}

Tensor Tensor::uninitialized(Shape shape) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_.resize(shape_numel(t.shape_));
#ifdef OSP_ASAN
  t.fill(std::numeric_limits<float>::quiet_NaN());
#endif
  return t;
}

Tensor Tensor::from(std::initializer_list<float> values) {
  return Tensor{Shape{values.size()}, std::vector<float>(values)};
}

std::size_t Tensor::dim(std::size_t d) const {
  OSP_CHECK(d < shape_.size(), "dim index out of range");
  return shape_[d];
}

float& Tensor::at(std::size_t r, std::size_t c) {
  OSP_CHECK(rank() == 2, "2-D access on non-matrix");
  OSP_CHECK(r < shape_[0] && c < shape_[1], "index out of range");
  return data_[r * shape_[1] + c];
}

float Tensor::at(std::size_t r, std::size_t c) const {
  return const_cast<Tensor*>(this)->at(r, c);
}

float& Tensor::at(std::size_t n, std::size_t c, std::size_t h,
                  std::size_t w) {
  OSP_CHECK(rank() == 4, "4-D access on non-rank-4 tensor");
  OSP_CHECK(n < shape_[0] && c < shape_[1] && h < shape_[2] && w < shape_[3],
            "index out of range");
  return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
}

float Tensor::at(std::size_t n, std::size_t c, std::size_t h,
                 std::size_t w) const {
  return const_cast<Tensor*>(this)->at(n, c, h, w);
}

void Tensor::reshape(Shape new_shape) {
  OSP_CHECK(shape_numel(new_shape) == data_.size(),
            "reshape must preserve element count");
  shape_ = std::move(new_shape);
}

Tensor Tensor::reshaped(Shape new_shape) const& {
  Tensor out = *this;
  out.reshape(std::move(new_shape));
  return out;
}

Tensor Tensor::reshaped(Shape new_shape) && {
  reshape(std::move(new_shape));
  return std::move(*this);
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

std::span<float> Tensor::row(std::size_t r) {
  OSP_CHECK(rank() == 2, "row() on non-matrix");
  OSP_CHECK(r < shape_[0], "row index out of range");
  return std::span<float>{data_}.subspan(r * shape_[1], shape_[1]);
}

std::span<const float> Tensor::row(std::size_t r) const {
  OSP_CHECK(rank() == 2, "row() on non-matrix");
  OSP_CHECK(r < shape_[0], "row index out of range");
  return std::span<const float>{data_}.subspan(r * shape_[1], shape_[1]);
}

}  // namespace osp::tensor
