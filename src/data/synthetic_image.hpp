// Class-conditional Gaussian "image" dataset — the stand-in for
// CIFAR-10/100 and ImageNet1K.
//
// Each class c has a fixed random prototype vector μ_c of unit scale;
// example i of class c is μ_c·separation + ε with ε ~ N(0, noise). The task
// is learnable by a linear model yet noisy enough that stale-gradient
// training (ASP) measurably degrades accuracy — exactly the property the
// paper's accuracy experiments rely on. Generation is stateless: example i
// is produced from rng.fork(i), so shards and epochs are reproducible.
//
// Because an example depends only on (config, index), the dataset keeps
// each example with index below kMemoBytes / (4 · pixels) after its first
// visit and copies it out on later visits: all of a set of up to kMemoBytes
// of pixels, and the first kMemoBytes of a larger one, whose other examples
// are regenerated on every visit. The memo is allocated on the first
// make_batch and is safe to fill from concurrent make_batch calls.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "data/dataset.hpp"
#include "util/rng.hpp"

namespace osp::data {

struct ImageDatasetConfig {
  std::size_t num_examples = 4096;
  std::size_t num_classes = 10;
  std::size_t channels = 3;
  std::size_t height = 8;
  std::size_t width = 8;
  double separation = 1.0;  ///< prototype scale; higher = easier task
  double noise = 1.0;       ///< per-pixel Gaussian noise stddev
  /// Defines the class prototypes — the *task*. Train and eval splits of
  /// the same task must share this.
  std::uint64_t seed = 42;
  /// Defines the per-example noise. Give train and eval different values
  /// so they are disjoint samples of the same task (0 = derive from seed).
  std::uint64_t noise_seed = 0;
};

class SyntheticImageDataset : public Dataset {
 public:
  explicit SyntheticImageDataset(const ImageDatasetConfig& config);

  [[nodiscard]] std::size_t size() const override { return config_.num_examples; }
  [[nodiscard]] Batch make_batch(
      std::span<const std::size_t> indices) const override;

  [[nodiscard]] const ImageDatasetConfig& config() const { return config_; }
  [[nodiscard]] std::size_t pixels() const {
    return config_.channels * config_.height * config_.width;
  }

  /// The label assigned to example `index` (round-robin over classes, so
  /// every shard is class-balanced).
  [[nodiscard]] std::int32_t label_of(std::size_t index) const;

  /// The memo's size in bytes of pixels: examples with index below
  /// kMemoBytes / (4 · pixels()) are memoized.
  static constexpr std::size_t kMemoBytes = std::size_t{1} << 20;

 private:
  ImageDatasetConfig config_;
  std::vector<float> prototypes_;  // [classes, pixels]
  // The example memo ([kept examples, pixels]) and one empty/filling/ready
  // state per kept example, both allocated under memo_once_ by the first
  // make_batch.
  mutable std::once_flag memo_once_;
  mutable std::unique_ptr<float[]> memo_;
  mutable std::unique_ptr<std::atomic<std::uint8_t>[]> memo_state_;
};

}  // namespace osp::data
