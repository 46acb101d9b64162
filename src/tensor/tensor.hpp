// Dense row-major float tensor.
//
// This is the numeric substrate for the proxy models: small, contiguous,
// deterministic. It deliberately supports only what the layer stack needs —
// owning storage, shape/reshape, element access, and flat span views used by
// the synchronization code (gradients and parameters are exchanged as flat
// float blocks).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace osp::tensor {

using Shape = std::vector<std::size_t>;

/// Number of elements implied by a shape (1 for rank-0).
[[nodiscard]] std::size_t shape_numel(const Shape& shape);

/// Human-readable form, e.g. "[2, 3, 4]".
[[nodiscard]] std::string shape_to_string(const Shape& shape);

/// std::allocator whose value-initialization is default-initialization:
/// resize(n) leaves the new floats unwritten, while copies and fills still
/// write every element.
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  template <class U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <class U>
  explicit DefaultInitAllocator(const DefaultInitAllocator<U>&) {}

  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) == 0) {
      ::new (static_cast<void*>(p)) U;
    } else {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  }
};

class Tensor {
 public:
  /// Empty rank-0 tensor with a single zero element is NOT created; an empty
  /// tensor has no elements and an empty shape.
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor of the given shape filled with `value`.
  Tensor(Shape shape, float value);

  /// Tensor with explicit contents; `data.size()` must equal numel(shape).
  /// Copies `data`: the storage's allocator differs from std::vector's, so
  /// a vector moved in is copied too.
  Tensor(Shape shape, const std::vector<float>& data);

  [[nodiscard]] static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  [[nodiscard]] static Tensor full(Shape shape, float v) { return {std::move(shape), v}; }
  /// Tensor of the given shape whose elements are left unwritten, for an
  /// output that a kernel stores in full: no zero fill the kernel would
  /// overwrite. Reading an element before it is written is a bug; builds
  /// with AddressSanitizer fill the storage with NaN, so such a read shows
  /// up in the results.
  [[nodiscard]] static Tensor uninitialized(Shape shape);
  /// 1-D tensor from a braced list.
  [[nodiscard]] static Tensor from(std::initializer_list<float> values);

  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] std::size_t rank() const { return shape_.size(); }
  [[nodiscard]] std::size_t numel() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  /// Size along dimension `d`; requires d < rank().
  [[nodiscard]] std::size_t dim(std::size_t d) const;

  [[nodiscard]] std::span<float> data() { return data_; }
  [[nodiscard]] std::span<const float> data() const { return data_; }

  [[nodiscard]] float* raw() { return data_.data(); }
  [[nodiscard]] const float* raw() const { return data_.data(); }

  /// Flat element access.
  [[nodiscard]] float& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] float operator[](std::size_t i) const { return data_[i]; }

  /// 2-D access; requires rank() == 2.
  [[nodiscard]] float& at(std::size_t r, std::size_t c);
  [[nodiscard]] float at(std::size_t r, std::size_t c) const;

  /// 4-D access (NCHW); requires rank() == 4.
  [[nodiscard]] float& at(std::size_t n, std::size_t c, std::size_t h,
                          std::size_t w);
  [[nodiscard]] float at(std::size_t n, std::size_t c, std::size_t h,
                         std::size_t w) const;

  /// In-place reshape; total element count must be preserved.
  void reshape(Shape new_shape);

  /// Returns a reshaped deep copy; an rvalue moves its storage instead.
  [[nodiscard]] Tensor reshaped(Shape new_shape) const&;
  [[nodiscard]] Tensor reshaped(Shape new_shape) &&;

  void fill(float value);
  void zero() { fill(0.0f); }

  /// Row `r` of a rank-2 tensor as a span of length dim(1).
  [[nodiscard]] std::span<float> row(std::size_t r);
  [[nodiscard]] std::span<const float> row(std::size_t r) const;

 private:
  Shape shape_;
  std::vector<float, DefaultInitAllocator<float>> data_;
};

}  // namespace osp::tensor
