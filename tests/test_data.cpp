// Dataset and loader tests: determinism, sharding, shuffling, and the
// structural properties the trainer depends on.
#include <gtest/gtest.h>

#include <cstring>
#include <latch>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "data/loader.hpp"
#include "data/synthetic_image.hpp"
#include "data/synthetic_qa.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace osp::data {
namespace {

ImageDatasetConfig small_image_config() {
  ImageDatasetConfig cfg;
  cfg.num_examples = 64;
  cfg.num_classes = 4;
  cfg.channels = 2;
  cfg.height = 3;
  cfg.width = 3;
  cfg.seed = 7;
  return cfg;
}

TEST(SyntheticImage, DeterministicAcrossInstances) {
  SyntheticImageDataset a(small_image_config());
  SyntheticImageDataset b(small_image_config());
  std::vector<std::size_t> idx = {0, 5, 63};
  const Batch ba = a.make_batch(idx);
  const Batch bb = b.make_batch(idx);
  ASSERT_EQ(ba.inputs.numel(), bb.inputs.numel());
  for (std::size_t i = 0; i < ba.inputs.numel(); ++i) {
    EXPECT_FLOAT_EQ(ba.inputs[i], bb.inputs[i]);
  }
  EXPECT_EQ(ba.labels, bb.labels);
}

TEST(SyntheticImage, SameExampleRegardlessOfBatchComposition) {
  SyntheticImageDataset ds(small_image_config());
  const Batch alone = ds.make_batch(std::vector<std::size_t>{10});
  const Batch grouped = ds.make_batch(std::vector<std::size_t>{3, 10, 40});
  const std::size_t px = ds.pixels();
  for (std::size_t p = 0; p < px; ++p) {
    EXPECT_FLOAT_EQ(alone.inputs[p], grouped.inputs[px + p]);
  }
}

TEST(SyntheticImage, LabelsRoundRobin) {
  SyntheticImageDataset ds(small_image_config());
  EXPECT_EQ(ds.label_of(0), 0);
  EXPECT_EQ(ds.label_of(1), 1);
  EXPECT_EQ(ds.label_of(4), 0);
  EXPECT_EQ(ds.label_of(63), 3);
}

TEST(SyntheticImage, DifferentNoiseSeedsDifferentExamplesSameTask) {
  ImageDatasetConfig c1 = small_image_config();
  ImageDatasetConfig c2 = small_image_config();
  c1.noise_seed = 100;
  c2.noise_seed = 200;
  SyntheticImageDataset a(c1), b(c2);
  const Batch ba = a.make_batch(std::vector<std::size_t>{0});
  const Batch bb = b.make_batch(std::vector<std::size_t>{0});
  bool identical = true;
  for (std::size_t i = 0; i < ba.inputs.numel(); ++i) {
    identical &= ba.inputs[i] == bb.inputs[i];
  }
  EXPECT_FALSE(identical);
  EXPECT_EQ(ba.labels, bb.labels);  // same task → same labels
}

TEST(SyntheticImage, SeparationControlsSignal) {
  ImageDatasetConfig weak = small_image_config();
  weak.separation = 0.0;  // prototypes collapse to zero
  SyntheticImageDataset ds(weak);
  const Batch b = ds.make_batch(std::vector<std::size_t>{0, 1});
  // With zero separation the class means vanish; values are pure noise of
  // stddev `noise` — just verify they are finite and non-degenerate.
  double sum = 0.0;
  for (float v : b.inputs.data()) sum += std::abs(v);
  EXPECT_GT(sum, 0.0);
}

TEST(SyntheticImage, RejectsOutOfRangeIndex) {
  SyntheticImageDataset ds(small_image_config());
  EXPECT_THROW((void)ds.make_batch(std::vector<std::size_t>{64}),
               util::CheckError);
}

// The rows at `indices` as a cold dataset generates them: each row comes
// from its own fresh instance, so none is read from a memo.
Batch fresh_rows(const ImageDatasetConfig& cfg,
                 const std::vector<std::size_t>& indices) {
  Batch out;
  out.inputs = tensor::Tensor(
      {indices.size(), cfg.channels, cfg.height, cfg.width});
  const std::size_t px = cfg.channels * cfg.height * cfg.width;
  for (std::size_t b = 0; b < indices.size(); ++b) {
    const Batch one = SyntheticImageDataset(cfg).make_batch(
        std::vector<std::size_t>{indices[b]});
    std::memcpy(out.inputs.raw() + b * px, one.inputs.raw(),
                px * sizeof(float));
    out.labels.push_back(one.labels[0]);
  }
  return out;
}

void expect_same_bits(const Batch& got, const Batch& want) {
  ASSERT_EQ(got.inputs.shape(), want.inputs.shape());
  EXPECT_EQ(std::memcmp(got.inputs.raw(), want.inputs.raw(),
                        want.inputs.numel() * sizeof(float)),
            0);
  EXPECT_EQ(got.labels, want.labels);
}

// The memo's configurations: both noise-seed paths, a set exactly at the
// memo cap, one a single example over it and one half again as large (as
// image-osp's train set is); the memo keeps the examples below the cap and
// regenerates the rest on every visit.
std::vector<ImageDatasetConfig> memo_configs() {
  ImageDatasetConfig derived = small_image_config();  // noise_seed 0
  ImageDatasetConfig own = small_image_config();
  own.noise_seed = 1234;
  ImageDatasetConfig at_cap = small_image_config();
  at_cap.channels = 1;
  at_cap.height = 16;
  at_cap.width = 16;
  at_cap.num_examples =
      SyntheticImageDataset::kMemoBytes / (256 * sizeof(float));
  ImageDatasetConfig over_cap = at_cap;
  over_cap.num_examples += 1;
  ImageDatasetConfig half_over = at_cap;
  half_over.num_examples += at_cap.num_examples / 2;
  return {derived, own, at_cap, over_cap, half_over};
}

/// The last memoized example and the first regenerated one, where the set
/// has them.
std::vector<std::size_t> around_cap(const ImageDatasetConfig& cfg) {
  const std::size_t px = cfg.channels * cfg.height * cfg.width;
  const std::size_t kept = SyntheticImageDataset::kMemoBytes /
                           (px * sizeof(float));
  std::vector<std::size_t> out;
  for (std::size_t i : {kept - 1, kept}) {
    if (i < cfg.num_examples) out.push_back(i);
  }
  return out;
}

std::string describe(const ImageDatasetConfig& cfg) {
  return std::to_string(cfg.num_examples) + " examples, noise_seed " +
         std::to_string(cfg.noise_seed);
}

TEST(SyntheticImageMemo, RepeatVisitsMatchFreshGeneration) {
  for (const ImageDatasetConfig& cfg : memo_configs()) {
    SCOPED_TRACE(describe(cfg));
    const std::size_t last = cfg.num_examples - 1;
    std::vector<std::size_t> idx = {0, 5, last, 17, 1};
    for (std::size_t i : around_cap(cfg)) idx.push_back(i);
    const Batch want = fresh_rows(cfg, idx);
    SyntheticImageDataset ds(cfg);
    for (int visit = 0; visit < 3; ++visit) {
      SCOPED_TRACE(visit);
      expect_same_bits(ds.make_batch(idx), want);
    }
  }
}

TEST(SyntheticImageMemo, MixedAndDuplicatedIndicesInOneBatch) {
  for (const ImageDatasetConfig& cfg : memo_configs()) {
    SCOPED_TRACE(describe(cfg));
    const std::size_t last = cfg.num_examples - 1;
    // Cold and warm rows in one batch, each duplicated, the last example
    // first and again at the end, and the rows either side of the cap twice.
    std::vector<std::size_t> idx = {last, 3, 3, 10, last, 0, 10, 2};
    for (std::size_t i : around_cap(cfg)) idx.insert(idx.end(), {i, i});
    const Batch want = fresh_rows(cfg, idx);
    SyntheticImageDataset ds(cfg);
    expect_same_bits(ds.make_batch(std::vector<std::size_t>{10, 0}),
                     fresh_rows(cfg, {10, 0}));
    expect_same_bits(ds.make_batch(idx), want);
    expect_same_bits(ds.make_batch(idx), want);
    EXPECT_THROW((void)ds.make_batch(std::vector<std::size_t>{0, last + 1}),
                 util::CheckError);
  }
}

TEST(SyntheticImageMemo, ZeroNoiseSeedDerivesFromSeed) {
  ImageDatasetConfig derived = small_image_config();
  ImageDatasetConfig spelled = derived;
  spelled.noise_seed = derived.seed;
  const std::vector<std::size_t> idx = {63, 0, 31, 63};
  SyntheticImageDataset a(derived), b(spelled);
  for (int visit = 0; visit < 2; ++visit) {
    expect_same_bits(a.make_batch(idx), b.make_batch(idx));
  }
}

TEST(SyntheticImageMemo, ConcurrentColdFillsMatchSerial) {
  for (const ImageDatasetConfig& cfg : memo_configs()) {
    SCOPED_TRACE(describe(cfg));
    // Four overlapping index sets, each visited three times, each with
    // the rows either side of the cap and one of the last four examples.
    constexpr std::size_t kThreads = 4;
    std::vector<std::vector<std::size_t>> idx(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      for (std::size_t i = 0; i < 24; ++i) {
        idx[t].push_back((t * 5 + i * 3) % cfg.num_examples);
      }
      for (std::size_t i : around_cap(cfg)) idx[t].push_back(i);
      idx[t].push_back(cfg.num_examples - 1 - t);
    }
    SyntheticImageDataset serial(cfg);
    std::vector<Batch> want;
    for (const auto& v : idx) want.push_back(serial.make_batch(v));

    for (int round = 0; round < 4; ++round) {
      SyntheticImageDataset ds(cfg);
      std::vector<std::vector<Batch>> got(kThreads);
      std::latch start(kThreads);
      std::vector<std::thread> threads;
      for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          start.arrive_and_wait();
          for (int visit = 0; visit < 3; ++visit) {
            got[t].push_back(ds.make_batch(idx[t]));
          }
        });
      }
      for (std::thread& th : threads) th.join();
      for (std::size_t t = 0; t < kThreads; ++t) {
        for (const Batch& b : got[t]) expect_same_bits(b, want[t]);
      }
    }
  }
}

QaDatasetConfig small_qa_config() {
  QaDatasetConfig cfg;
  cfg.num_examples = 32;
  cfg.seq_len = 10;
  cfg.vocab = 40;
  cfg.answer_vocab = 8;
  cfg.max_answer_len = 3;
  cfg.seed = 11;
  return cfg;
}

TEST(SyntheticQa, AnswerSpanMarkedByVocabulary) {
  SyntheticQaDataset ds(small_qa_config());
  std::vector<std::size_t> idx(32);
  for (std::size_t i = 0; i < 32; ++i) idx[i] = i;
  const Batch b = ds.make_batch(idx);
  for (std::size_t r = 0; r < 32; ++r) {
    const auto start = static_cast<std::size_t>(b.starts[r]);
    const auto end = static_cast<std::size_t>(b.ends[r]);
    ASSERT_LE(start, end);
    ASSERT_LT(end, 10u);
    for (std::size_t t = 0; t < 10; ++t) {
      const auto token = static_cast<std::size_t>(b.inputs[r * 10 + t]);
      if (t >= start && t <= end) {
        EXPECT_LT(token, 8u) << "answer token outside answer vocab";
      } else {
        EXPECT_GE(token, 8u) << "context token inside answer vocab";
      }
    }
  }
}

TEST(SyntheticQa, SpanLengthBounded) {
  SyntheticQaDataset ds(small_qa_config());
  std::vector<std::size_t> idx(32);
  for (std::size_t i = 0; i < 32; ++i) idx[i] = i;
  const Batch b = ds.make_batch(idx);
  for (std::size_t r = 0; r < 32; ++r) {
    EXPECT_LE(b.ends[r] - b.starts[r] + 1, 3);
  }
}

TEST(SyntheticQa, Deterministic) {
  SyntheticQaDataset a(small_qa_config());
  SyntheticQaDataset b(small_qa_config());
  const Batch ba = a.make_batch(std::vector<std::size_t>{7});
  const Batch bb = b.make_batch(std::vector<std::size_t>{7});
  for (std::size_t i = 0; i < ba.inputs.numel(); ++i) {
    EXPECT_FLOAT_EQ(ba.inputs[i], bb.inputs[i]);
  }
  EXPECT_EQ(ba.starts, bb.starts);
  EXPECT_EQ(ba.ends, bb.ends);
}

TEST(SyntheticQa, ConfigValidation) {
  QaDatasetConfig bad = small_qa_config();
  bad.answer_vocab = 40;  // not a strict sub-vocabulary
  EXPECT_THROW(SyntheticQaDataset{bad}, util::CheckError);
}

TEST(ShardIndices, PartitionExactly) {
  std::set<std::size_t> seen;
  for (std::size_t w = 0; w < 3; ++w) {
    for (std::size_t i : shard_indices(10, w, 3)) {
      EXPECT_TRUE(seen.insert(i).second) << "duplicate index " << i;
    }
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(ShardIndices, ContiguousShardsKeepClassBalance) {
  // With round-robin labels (label = idx % C) every contiguous shard must
  // contain all classes — including when gcd(workers, classes) > 1, the
  // case that breaks interleaved sharding.
  for (std::size_t w = 0; w < 8; ++w) {
    const auto shard = shard_indices(640, w, 8);
    std::set<std::size_t> classes;
    for (std::size_t i : shard) classes.insert(i % 10);
    EXPECT_EQ(classes.size(), 10u) << "worker " << w;
  }
}

TEST(ShardIndices, ContiguousAndOrdered) {
  const auto shard = shard_indices(10, 1, 3);
  ASSERT_EQ(shard.size(), 3u);  // [3, 6)
  EXPECT_EQ(shard.front(), 3u);
  EXPECT_EQ(shard.back(), 5u);
}

TEST(ShardIndices, UnevenSizesCoverAll) {
  std::size_t total = 0;
  for (std::size_t w = 0; w < 3; ++w) total += shard_indices(11, w, 3).size();
  EXPECT_EQ(total, 11u);
}

TEST(ShardIndices, RejectsBadWorker) {
  EXPECT_THROW((void)shard_indices(10, 3, 3), util::CheckError);
  EXPECT_THROW((void)shard_indices(10, 0, 0), util::CheckError);
}

TEST(ShardLoader, BatchesPartitionShard) {
  SyntheticImageDataset ds(small_image_config());
  ShardLoader loader(ds, 0, 2, 8, 5);
  EXPECT_EQ(loader.shard_size(), 32u);
  EXPECT_EQ(loader.batches_per_epoch(), 4u);
}

TEST(ShardLoader, EpochShufflesDiffer) {
  SyntheticImageDataset ds(small_image_config());
  ShardLoader loader(ds, 0, 2, 8, 5);
  const Batch e0 = loader.batch(0, 0);
  const Batch e1 = loader.batch(1, 0);
  bool identical = true;
  for (std::size_t i = 0; i < e0.inputs.numel(); ++i) {
    identical &= e0.inputs[i] == e1.inputs[i];
  }
  EXPECT_FALSE(identical) << "per-epoch shuffle had no effect";
}

TEST(ShardLoader, SameEpochSameBatchIsStable) {
  SyntheticImageDataset ds(small_image_config());
  ShardLoader loader(ds, 1, 2, 8, 5);
  const Batch a = loader.batch(3, 2);
  const Batch b = loader.batch(3, 2);
  for (std::size_t i = 0; i < a.inputs.numel(); ++i) {
    EXPECT_FLOAT_EQ(a.inputs[i], b.inputs[i]);
  }
}

TEST(ShardLoader, WorkersSeeDisjointData) {
  SyntheticImageDataset ds(small_image_config());
  ShardLoader l0(ds, 0, 2, 8, 5);
  ShardLoader l1(ds, 1, 2, 8, 5);
  // Same epoch, all batches: the union of examples must be disjoint across
  // workers. Compare via the deterministic pixel content of example 0 of
  // each batch — simpler: shard index sets are disjoint by construction;
  // verify loaders don't crash and produce full batches.
  for (std::size_t b = 0; b < l0.batches_per_epoch(); ++b) {
    EXPECT_EQ(l0.batch(0, b).size(), 8u);
    EXPECT_EQ(l1.batch(0, b).size(), 8u);
  }
}

TEST(ShardLoader, RejectsShardSmallerThanBatch) {
  SyntheticImageDataset ds(small_image_config());
  EXPECT_THROW(ShardLoader(ds, 0, 32, 8, 5), util::CheckError);
}

TEST(ShardLoader, RejectsBatchIndexOutOfRange) {
  SyntheticImageDataset ds(small_image_config());
  ShardLoader loader(ds, 0, 2, 8, 5);
  EXPECT_THROW((void)loader.batch(0, 4), util::CheckError);
}

TEST(ShardLoader, MemoizedOrderMatchesFreshShuffle) {
  // Regression for the memoized per-epoch order: every batch must equal
  // what a from-scratch shuffle of the shard produces — the cache is a
  // pure optimization, derived from the same (seed, worker, epoch) RNG
  // stream as the pre-memoization implementation.
  SyntheticImageDataset ds(small_image_config());
  const std::size_t worker = 1, num_workers = 2, batch_size = 8;
  const std::uint64_t seed = 5;
  ShardLoader loader(ds, worker, num_workers, batch_size, seed);
  for (std::size_t epoch = 0; epoch < 3; ++epoch) {
    std::vector<std::size_t> order = shard_indices(64, worker, num_workers);
    util::Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (worker + 1)) ^
                  (0xbf58476d1ce4e5b9ULL * (epoch + 1)));
    rng.shuffle(order);
    for (std::size_t b = 0; b < loader.batches_per_epoch(); ++b) {
      const std::vector<std::size_t> picked(
          order.begin() + static_cast<std::ptrdiff_t>(b * batch_size),
          order.begin() + static_cast<std::ptrdiff_t>((b + 1) * batch_size));
      const Batch expected = ds.make_batch(picked);
      const Batch got = loader.batch(epoch, b);
      ASSERT_EQ(got.inputs.numel(), expected.inputs.numel());
      for (std::size_t i = 0; i < got.inputs.numel(); ++i) {
        ASSERT_EQ(got.inputs[i], expected.inputs[i])
            << "epoch " << epoch << " batch " << b;
      }
      EXPECT_EQ(got.labels, expected.labels);
    }
  }
}

TEST(ShardLoader, AccessOrderDoesNotChangeBatches) {
  // Interleaving epochs (which evicts the cached order back and forth,
  // exactly what a crash-abandoned job racing a restarted worker does)
  // must produce the same batches as walking epochs sequentially.
  SyntheticImageDataset ds(small_image_config());
  ShardLoader sequential(ds, 0, 2, 8, 5);
  ShardLoader interleaved(ds, 0, 2, 8, 5);
  const std::size_t nb = sequential.batches_per_epoch();

  std::vector<Batch> expected;
  for (std::size_t e = 0; e < 2; ++e) {
    for (std::size_t b = 0; b < nb; ++b) {
      expected.push_back(sequential.batch(e, b));
    }
  }
  for (std::size_t b = 0; b < nb; ++b) {
    // epoch 1 first, then revisit epoch 0, then epoch 1 again.
    const Batch e1 = interleaved.batch(1, b);
    const Batch e0 = interleaved.batch(0, b);
    const Batch e1_again = interleaved.batch(1, b);
    const Batch& want0 = expected[b];
    const Batch& want1 = expected[nb + b];
    for (std::size_t i = 0; i < want0.inputs.numel(); ++i) {
      ASSERT_EQ(e0.inputs[i], want0.inputs[i]) << "batch " << b;
      ASSERT_EQ(e1.inputs[i], want1.inputs[i]) << "batch " << b;
      ASSERT_EQ(e1_again.inputs[i], want1.inputs[i]) << "batch " << b;
    }
    EXPECT_EQ(e0.labels, want0.labels);
    EXPECT_EQ(e1.labels, want1.labels);
  }
}

}  // namespace
}  // namespace osp::data
