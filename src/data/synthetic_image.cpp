#include "data/synthetic_image.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace osp::data {

namespace {

// An example's memo state. Only the caller that moves it from kEmpty to
// kFilling writes the memo row; readers copy the row only once kReady.
constexpr std::uint8_t kEmpty = 0;
constexpr std::uint8_t kFilling = 1;
constexpr std::uint8_t kReady = 2;

}  // namespace

SyntheticImageDataset::SyntheticImageDataset(const ImageDatasetConfig& config)
    : config_(config) {
  OSP_CHECK(config.num_examples > 0 && config.num_classes > 0,
            "dataset needs examples and classes");
  OSP_CHECK(config.channels > 0 && config.height > 0 && config.width > 0,
            "dataset needs positive image dims");
  // Fixed per-class prototypes drawn once from the master seed.
  util::Rng proto_rng(config.seed);
  prototypes_.resize(config.num_classes * pixels());
  for (float& v : prototypes_) {
    v = static_cast<float>(proto_rng.normal() * config.separation);
  }
}

std::int32_t SyntheticImageDataset::label_of(std::size_t index) const {
  OSP_CHECK(index < config_.num_examples, "example index out of range");
  return static_cast<std::int32_t>(index % config_.num_classes);
}

Batch SyntheticImageDataset::make_batch(
    std::span<const std::size_t> indices) const {
  OSP_CHECK(!indices.empty(), "empty batch request");
  const std::size_t px = pixels();
  // The memo is allocated on first use, so building a dataset stays cheap,
  // and only for sets whose pixels fit in kMemoBytes.
  float* memo = nullptr;
  if (config_.num_examples <= kMemoBytes / sizeof(float) / px) {
    std::call_once(memo_once_, [&] {
      memo_ = std::make_unique_for_overwrite<float[]>(config_.num_examples *
                                                      px);
      memo_state_ = std::make_unique<std::atomic<std::uint8_t>[]>(
          config_.num_examples);
    });
    memo = memo_.get();
  }
  Batch batch;
  batch.inputs = tensor::Tensor(
      {indices.size(), config_.channels, config_.height, config_.width});
  batch.labels.reserve(indices.size());
  util::Rng master(config_.noise_seed != 0 ? config_.noise_seed
                                           : config_.seed);
  float* out = batch.inputs.raw();
  for (std::size_t b = 0; b < indices.size(); ++b) {
    const std::size_t idx = indices[b];
    const std::int32_t label = label_of(idx);
    batch.labels.push_back(label);
    float* dst = out + b * px;
    float* row = memo != nullptr ? memo + idx * px : nullptr;
    if (row != nullptr &&
        memo_state_[idx].load(std::memory_order_acquire) == kReady) {
      std::copy_n(row, px, dst);
      continue;
    }
    // Stateless per-example noise stream.
    util::Rng ex = master.fork(idx + 1);
    const float* proto = prototypes_.data() +
                         static_cast<std::size_t>(label) * px;
    for (std::size_t p = 0; p < px; ++p) {
      dst[p] = proto[p] + static_cast<float>(ex.normal() * config_.noise);
    }
    std::uint8_t expected = kEmpty;
    if (row != nullptr &&
        memo_state_[idx].compare_exchange_strong(expected, kFilling)) {
      std::copy_n(dst, px, row);
      memo_state_[idx].store(kReady, std::memory_order_release);
    }
  }
  return batch;
}

}  // namespace osp::data
