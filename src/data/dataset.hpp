// Dataset abstraction.
//
// Datasets are *generative*: examples are synthesized deterministically from
// (seed, index), so every worker sees identical examples. A dataset may keep
// examples it has generated, up to a fixed byte cap, filled lazily and
// safely under concurrent make_batch calls (SyntheticImageDataset does);
// above the cap it regenerates an example on every visit. A Batch carries
// the model input tensor plus whichever supervision the task uses (class
// labels or QA spans).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace osp::data {

/// One minibatch. `labels` is used by classification tasks; `starts`/`ends`
/// by span-extraction tasks. Unused fields stay empty.
struct Batch {
  tensor::Tensor inputs;
  std::vector<std::int32_t> labels;
  std::vector<std::int32_t> starts;
  std::vector<std::int32_t> ends;

  [[nodiscard]] std::size_t size() const {
    return inputs.empty() ? 0 : inputs.dim(0);
  }
};

class Dataset {
 public:
  virtual ~Dataset() = default;

  /// Total number of examples.
  [[nodiscard]] virtual std::size_t size() const = 0;

  /// Materialize the examples at `indices` into a batch. Safe to call from
  /// several threads at once.
  [[nodiscard]] virtual Batch make_batch(
      std::span<const std::size_t> indices) const = 0;
};

}  // namespace osp::data
