// Property suite for the key-range KV core: key-range split/merge
// invariants, partitioning (byte-balanced + consistent hash ring),
// versioned segment store, message round-trips, and the composable
// filter pipeline — every filter alone plus all pairwise and triple
// compositions through serialize → deserialize → decode.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <vector>

#include "kv/compress.hpp"
#include "kv/filter.hpp"
#include "kv/key.hpp"
#include "kv/message.hpp"
#include "kv/partition.hpp"
#include "kv/store.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/serde.hpp"
#include "util/simd.hpp"

namespace osp {
namespace {

// ----------------------------------------------------------- key ranges

TEST(KeyRange, SplitCoversRangeContiguously) {
  for (const std::size_t n : {1u, 2u, 3u, 7u, 16u}) {
    const kv::KeyRange r{10, 143};
    const auto parts = kv::split_range(r, n);
    ASSERT_EQ(parts.size(), n);
    kv::Key cursor = r.begin;
    std::size_t total = 0;
    for (const auto& p : parts) {
      EXPECT_EQ(p.begin, cursor);  // contiguous, in order
      EXPECT_LE(p.begin, p.end);
      cursor = p.end;
      total += p.size();
    }
    EXPECT_EQ(cursor, r.end);
    EXPECT_EQ(total, r.size());
    // Near-equal: sizes differ by at most one.
    std::size_t lo = parts[0].size(), hi = parts[0].size();
    for (const auto& p : parts) {
      lo = std::min(lo, p.size());
      hi = std::max(hi, p.size());
    }
    EXPECT_LE(hi - lo, 1u);
  }
}

TEST(KeyRange, SplitMergeRoundTrip) {
  const kv::KeyRange r{5, 77};
  for (const std::size_t n : {1u, 4u, 9u, 100u}) {
    const auto merged = kv::merge_ranges(kv::split_range(r, n));
    ASSERT_EQ(merged.size(), 1u);
    EXPECT_EQ(merged[0], r);
  }
}

TEST(KeyRange, MergeCoalescesAdjacentAndDropsEmpties) {
  const std::vector<kv::KeyRange> in = {
      {0, 0}, {1, 3}, {3, 5}, {7, 7}, {8, 9}};
  const auto out = kv::merge_ranges(in);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (kv::KeyRange{1, 5}));
  EXPECT_EQ(out[1], (kv::KeyRange{8, 9}));
}

TEST(KeyRange, MergeRejectsOverlapAndDisorder) {
  EXPECT_THROW((void)kv::merge_ranges({{0, 5}, {3, 8}}), util::CheckError);
  EXPECT_THROW((void)kv::merge_ranges({{5, 8}, {0, 3}}), util::CheckError);
  EXPECT_THROW((void)kv::merge_ranges({{5, 3}}), util::CheckError);
}

TEST(KeyRange, SplitRejectsZeroParts) {
  EXPECT_THROW((void)kv::split_range({0, 10}, 0), util::CheckError);
}

TEST(KeyRange, ContainsMatchesHalfOpenBounds) {
  const kv::KeyRange r{3, 6};
  EXPECT_FALSE(r.contains(2));
  EXPECT_TRUE(r.contains(3));
  EXPECT_TRUE(r.contains(5));
  EXPECT_FALSE(r.contains(6));
  EXPECT_TRUE((kv::KeyRange{4, 4}).empty());
}

// ---------------------------------------------------------- partitioning

TEST(Partition, EveryKeyExactlyOneShard) {
  const std::vector<double> bytes = {50, 30, 20, 20, 10, 10, 5, 5};
  const auto part = kv::byte_balanced_partition(bytes, 3);
  ASSERT_EQ(part.num_keys(), bytes.size());
  for (std::size_t k = 0; k < bytes.size(); ++k) {
    EXPECT_LT(part.shard_of(k), 3u);
  }
  const auto loads = kv::partition_bytes(bytes, part);
  double total = 0.0;
  for (double l : loads) total += l;
  EXPECT_DOUBLE_EQ(total, 150.0);  // no key lost, none double-counted
}

TEST(Partition, SelectedBytesSumsAscending) {
  const std::vector<double> bytes = {1.0, 2.0, 4.0, 8.0};
  const std::vector<std::uint8_t> keep = {1, 0, 1, 1};
  EXPECT_DOUBLE_EQ(kv::selected_bytes(keep, bytes), 13.0);
  EXPECT_DOUBLE_EQ(kv::selected_bytes({{0, 0, 0, 0}}, bytes), 0.0);
}

TEST(ConsistentHash, EveryKeyExactlyOneShardAndDeterministic) {
  const kv::ConsistentHashRing ring(4);
  const kv::ConsistentHashRing again(4);
  const auto part = ring.partition(10000);
  ASSERT_EQ(part.num_keys(), 10000u);
  std::vector<std::size_t> counts(4, 0);
  for (std::size_t k = 0; k < part.num_keys(); ++k) {
    ASSERT_LT(part.owner[k], 4u);
    ++counts[part.owner[k]];
    EXPECT_EQ(part.owner[k], ring.shard_of(k));
    EXPECT_EQ(part.owner[k], again.shard_of(k));  // pure function of salt
  }
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_GT(counts[s], 0u) << "shard " << s << " owns no keys";
  }
}

TEST(ConsistentHash, RebalanceMovesBoundedFractionOnlyToNewShard) {
  const std::size_t kKeys = 10000;
  const auto before = kv::ConsistentHashRing(4).partition(kKeys);
  const auto after = kv::ConsistentHashRing(5).partition(kKeys);
  std::size_t moved = 0;
  for (std::size_t k = 0; k < kKeys; ++k) {
    if (after.owner[k] == before.owner[k]) continue;
    ++moved;
    // Growth only ever moves keys onto the new shard's arcs.
    EXPECT_EQ(after.owner[k], 4u);
  }
  // Expectation is 1/(P+1) = 20% of the key space; allow generous noise
  // from the finite virtual-node count.
  EXPECT_GT(moved, 0u);
  EXPECT_LT(static_cast<double>(moved) / static_cast<double>(kKeys), 0.35);
}

// ----------------------------------------------------------------- store

TEST(KvStore, VersionsBumpAndStamp) {
  kv::KvStore store;
  const std::vector<std::size_t> offsets = {0, 4, 10};
  const std::vector<std::size_t> numels = {4, 6, 2};
  store.init(offsets, numels);
  ASSERT_EQ(store.num_segments(), 3u);
  EXPECT_EQ(store.key_range(), (kv::KeyRange{0, 3}));
  EXPECT_EQ(store.version(1), 0u);

  store.bump(1);
  for (kv::Key k : {0, 2, 0, 1, 2}) store.bump(k);
  EXPECT_EQ(store.version(0), 2u);
  EXPECT_EQ(store.version(1), 2u);
  EXPECT_EQ(store.version(2), 2u);
  store.bump(2);

  kv::KvMessage by_keys;
  by_keys.keys = {2, 0};
  store.stamp_versions(by_keys);
  ASSERT_EQ(by_keys.versions.size(), 2u);
  EXPECT_EQ(by_keys.versions[0], 3u);  // follows the key list order
  EXPECT_EQ(by_keys.versions[1], 2u);

  kv::KvMessage by_range;
  by_range.range = store.key_range();
  store.stamp_versions(by_range);
  ASSERT_EQ(by_range.versions.size(), 3u);
  EXPECT_EQ(by_range.versions[2], 3u);
}

TEST(KvStore, SaveLoadRoundTripAndLayoutGuard) {
  kv::KvStore store;
  store.init({{0, 8}}, {{8, 8}});
  store.bump(0);
  store.bump(0);
  store.bump(1);
  util::serde::Writer w;
  store.save_state(w);

  kv::KvStore same;
  same.init({{0, 8}}, {{8, 8}});
  util::serde::Reader r(w.data());
  same.load_state(r);
  r.expect_done();
  EXPECT_EQ(same.version(0), 2u);
  EXPECT_EQ(same.version(1), 1u);

  kv::KvStore other;
  other.init({{0, 4}}, {{4, 8}});
  util::serde::Reader r2(w.data());
  EXPECT_THROW(other.load_state(r2), util::CheckError);
}

// -------------------------------------------------------------- messages

TEST(KvMessage, BeginResetsEverythingButTheValueBuffer) {
  kv::KvMessage m;
  m.values = {1.0f, 2.0f};
  m.keys = {7};
  m.versions = {1};
  m.indices = {0};
  m.sparse = m.delta_encoded = m.compact = true;
  m.key_sig = 9;
  m.set_accounting(64.0);
  m.begin(kv::Op::kPullResponse, 3, 11, {2, 9});
  EXPECT_EQ(m.op, kv::Op::kPullResponse);
  EXPECT_EQ(m.sender, 3u);
  EXPECT_EQ(m.round, 11u);
  EXPECT_EQ(m.range, (kv::KeyRange{2, 9}));
  EXPECT_TRUE(m.keys.empty() && m.versions.empty() && m.indices.empty());
  EXPECT_FALSE(m.sparse || m.delta_encoded || m.compact);
  EXPECT_EQ(m.key_sig, 0u);
  // A freshly begun message still pays the fixed serialization frame.
  EXPECT_DOUBLE_EQ(m.wire_bytes(), kv::kFrameOverheadBytes);
  EXPECT_EQ(m.values.size(), 2u);  // sender refills in place
}

TEST(KvMessage, DenseSerializeRoundTrip) {
  kv::KvMessage m;
  m.begin(kv::Op::kPush, 2, 5, {0, 3});
  m.keys = {0, 1, 2};
  m.versions = {4, 4, 5};
  m.set_values(std::vector<float>{0.5f, -1.0f, 2.0f}, 96.0);
  m.meta_bytes = 8.0;
  const auto d = kv::deserialize(kv::serialize(m));
  EXPECT_EQ(d.op, m.op);
  EXPECT_EQ(d.sender, m.sender);
  EXPECT_EQ(d.round, m.round);
  EXPECT_EQ(d.range, m.range);
  EXPECT_EQ(d.keys, m.keys);
  EXPECT_EQ(d.versions, m.versions);
  EXPECT_EQ(d.values, m.values);
  EXPECT_FALSE(d.compact);
  EXPECT_DOUBLE_EQ(d.wire_bytes(), m.wire_bytes());
}

TEST(KvMessage, SparseSerializeCompactsThenScattersBack) {
  kv::KvMessage m;
  m.begin(kv::Op::kPush, 0, 1, {0, 1});
  m.set_values(std::vector<float>{0.0f, 3.0f, 0.0f, -2.0f}, 16.0);
  m.indices = {1, 3};
  m.sparse = true;
  kv::KvMessage d = kv::deserialize(kv::serialize(m));
  EXPECT_TRUE(d.compact);
  ASSERT_EQ(d.values.size(), 2u);  // support only on the wire
  EXPECT_EQ(d.values[0], 3.0f);
  EXPECT_EQ(d.values[1], -2.0f);
  kv::TopKFilter scatter(kv::CompressionMode::TopK, 1.0, 0);
  scatter.decode(d);
  EXPECT_FALSE(d.compact);
  EXPECT_EQ(d.values, m.values);
}

// ------------------------------------------------------- filters, singly

TEST(Filters, KeyCacheInlineFirstThenSignature) {
  kv::KeyCacheFilter sender;
  kv::KeyCacheFilter receiver;
  const std::vector<kv::Key> keys = {3, 1, 4, 1, 5};
  for (int round = 0; round < 3; ++round) {
    kv::KvMessage m;
    m.begin(kv::Op::kPush, 0, static_cast<std::uint64_t>(round), {});
    m.keys = keys;
    sender.encode(m);
    if (round == 0) {
      EXPECT_EQ(m.key_sig, 0u);
      EXPECT_DOUBLE_EQ(m.index_bytes, 8.0 * 5.0);  // list travels inline
    } else {
      EXPECT_NE(m.key_sig, 0u);
      EXPECT_TRUE(m.keys.empty());
      EXPECT_DOUBLE_EQ(m.meta_bytes, 8.0);  // signature only
    }
    kv::KvMessage d = kv::deserialize(kv::serialize(m));
    receiver.decode(d);
    EXPECT_EQ(d.keys, keys);
    EXPECT_EQ(d.key_sig, 0u);
  }
}

TEST(Filters, KeyCacheUnknownSignatureRejected) {
  kv::KeyCacheFilter receiver;
  kv::KvMessage m;
  m.key_sig = 1234;
  EXPECT_THROW(receiver.decode(m), util::CheckError);
}

TEST(Filters, DeltaXorLosslessAndCheaperWhenMostlyUnchanged) {
  kv::DeltaXorFilter sender;
  kv::DeltaXorFilter receiver;
  std::vector<float> base(64);
  for (std::size_t i = 0; i < base.size(); ++i) {
    base[i] = 0.25f * static_cast<float>(i) - 3.0f;
  }
  for (int round = 0; round < 3; ++round) {
    std::vector<float> vals = base;
    vals[static_cast<std::size_t>(round)] += 1.0f;  // one element changes
    kv::KvMessage m;
    m.begin(kv::Op::kPush, 1, static_cast<std::uint64_t>(round), {0, 64});
    m.set_values(vals, 4.0 * 64.0);
    sender.encode(m);
    if (round == 0) {
      EXPECT_FALSE(m.delta_encoded);  // no baseline yet: raw
      EXPECT_DOUBLE_EQ(m.value_bytes, 256.0);
    } else {
      EXPECT_TRUE(m.delta_encoded);
      EXPECT_LT(m.value_bytes, 256.0 * 0.25);  // bitmap + few changed bytes
    }
    kv::KvMessage d = kv::deserialize(kv::serialize(m));
    receiver.decode(d);
    EXPECT_FALSE(d.delta_encoded);
    EXPECT_EQ(d.values, vals);  // bit-exact (XOR, not float subtraction)
  }
}

TEST(Filters, DeltaXorSkipsSparseMessages) {
  kv::DeltaXorFilter f;
  kv::KvMessage m;
  m.set_values(std::vector<float>{1.0f, 0.0f}, 8.0);
  m.indices = {0};
  m.sparse = true;
  f.encode(m);
  EXPECT_FALSE(m.delta_encoded);
  EXPECT_DOUBLE_EQ(m.value_bytes, 8.0);
}

TEST(Filters, QuantizeMatchesKernelAndAccounting) {
  std::vector<float> vals = {0.5f, -1.0f, 0.25f, 0.8f};
  std::vector<float> expected = vals;
  const float scale = kv::quantize_dequantize_int8(expected);
  kv::QuantizeInt8Filter f;
  kv::KvMessage m;
  m.set_values(vals, 16.0);
  f.encode(m);
  EXPECT_EQ(m.values, expected);
  EXPECT_FLOAT_EQ(m.quant_scale, scale);
  EXPECT_EQ(m.quant_bits, 8);
  EXPECT_DOUBLE_EQ(m.value_bytes, 4.0);
  EXPECT_DOUBLE_EQ(m.meta_bytes, 4.0);
}

TEST(Filters, Q8RejectsNonFinite) {
  // A NaN or an inf would set the scale (or slip past the clamp) and give
  // tier-dependent bits; the Q8 stage rejects it in every tier, whether it
  // sits in a whole 16-lane block (index 5) or in the tail (index 36).
  const float bad[] = {std::numeric_limits<float>::quiet_NaN(),
                       std::numeric_limits<float>::infinity(),
                       -std::numeric_limits<float>::infinity()};
  for (auto tier : {util::simd::Tier::kScalar, util::simd::Tier::kAvx2,
                    util::simd::Tier::kAvx512}) {
    util::simd::ScopedTier forced(tier);
    for (float v : bad) {
      for (std::size_t at : {5u, 36u}) {
        std::vector<float> grad(37, 0.5f);
        grad[at] = v;
        EXPECT_THROW((void)kv::quantize_dequantize_int8(grad),
                     util::CheckError)
            << util::simd::tier_name(util::simd::active_tier()) << ' ' << v
            << " at " << at;
      }
    }
    kv::QuantizeInt8Filter f;
    kv::KvMessage m;
    m.set_values(std::vector<float>{1.0f, bad[0], -2.0f}, 12.0);
    EXPECT_THROW(f.encode(m), util::CheckError);
  }
}

TEST(Filters, TopKKeepsLargestAndAccountsKeptElements) {
  std::vector<float> vals(16);
  for (std::size_t i = 0; i < vals.size(); ++i) {
    vals[i] = (i % 2 != 0 ? -1.0f : 1.0f) * static_cast<float>(i + 1);
  }
  kv::TopKFilter f(kv::CompressionMode::TopK, 0.25, 11);
  kv::KvMessage m;
  m.set_values(vals, 64.0);
  f.encode(m);
  EXPECT_EQ(f.last_kept(), 4u);
  EXPECT_TRUE(m.sparse);
  ASSERT_EQ(m.indices.size(), 4u);
  for (std::uint32_t i : m.indices) EXPECT_GE(i, 12u);  // the top quarter
  EXPECT_DOUBLE_EQ(m.value_bytes, 16.0);
  EXPECT_DOUBLE_EQ(m.index_bytes, 16.0);
  // Round trip through the wire reproduces the dense receiver view.
  const std::vector<float> view = m.values;
  kv::KvMessage d = kv::deserialize(kv::serialize(m));
  f.decode(d);
  EXPECT_EQ(d.values, view);
}

TEST(Filters, TopKRejectsNaN) {
  const std::vector<float> vals = {1.0f, -2.0f, 0.0f,
                                   std::numeric_limits<float>::quiet_NaN(),
                                   0.5f, -0.25f, 3.0f, 0.0f};
  std::vector<float> grad = vals;
  util::Rng rng(1);
  EXPECT_THROW(
      (void)kv::sparsify(grad, kv::CompressionMode::TopK, 0.25, rng),
      util::CheckError);
  kv::TopKFilter f(kv::CompressionMode::TopK, 0.5, 3);
  kv::KvMessage m;
  m.set_values(vals, 32.0);
  EXPECT_THROW(f.encode(m), util::CheckError);
}

TEST(Filters, GibZeroesDroppedBlocksAndCharges) {
  kv::GibFilter f(/*attach_bitmap=*/true);
  f.set_blocks({{0, 4, 100.0}, {4, 4, 200.0}, {8, 4, 400.0}});
  f.set_selection({{1, 0, 1}});
  std::vector<float> vals(12, 1.0f);
  kv::KvMessage m;
  m.set_values(vals, 700.0);
  f.encode(m);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(m.values[i], i >= 4 && i < 8 ? 0.0f : 1.0f);
  }
  EXPECT_DOUBLE_EQ(m.value_bytes, 500.0);          // kept blocks only
  EXPECT_DOUBLE_EQ(m.index_bytes, 4.0 + 1.0);      // u32 count + 3 bits
  EXPECT_EQ(m.block_mask, (std::vector<std::uint8_t>{1, 0, 1}));
  EXPECT_THROW(f.set_selection({{1, 0}}), util::CheckError);
}

TEST(Filters, PipelineStateRoundTripRestoresRandomKStream) {
  kv::FilterPipeline p;
  auto* rk = static_cast<kv::TopKFilter*>(&p.add(
      std::make_unique<kv::TopKFilter>(kv::CompressionMode::RandomK, 0.25,
                                       99)));
  std::vector<float> vals(32, 1.0f);
  util::serde::Writer w;
  p.save_state(w);
  kv::KvMessage a;
  a.set_values(vals, 128.0);
  rk->encode(a);
  util::serde::Reader r(w.data());
  p.load_state(r);  // rewind the selection stream
  kv::KvMessage b;
  b.set_values(vals, 128.0);
  rk->encode(b);
  EXPECT_EQ(a.indices, b.indices);  // same stream, same support
}

// --------------------------------------- filter compositions (pairs, triples)
//
// Canonical stage order: keycache ∘ gib ∘ topk ∘ q8 ∘ deltaxor. In this
// order every subset composes safely: addressing first, block projection
// before element selection, the quantizer transforms whatever value
// bytes remain, and the XOR delta runs last so it no-ops on sparse
// payloads (a positional delta over a changing support is meaningless).
// The invariant checked for every composition: sender-encode →
// serialize → deserialize → receiver-decode yields exactly the lossy
// projection of the input (GIB zeroing, then top-k, then int8), with
// keys restored and all structural flags cleared.

enum Stage : unsigned { kKeyCache = 0, kGib, kTopK, kQ8, kDeltaXor };

constexpr std::size_t kBlocks = 4;
constexpr std::size_t kBlockNumel = 8;
constexpr std::size_t kNumel = kBlocks * kBlockNumel;
constexpr double kTopKFrac = 0.25;

kv::FilterPipeline make_pipeline(const std::set<Stage>& stages) {
  kv::FilterPipeline p;
  if (stages.count(kKeyCache) != 0) {
    p.add(std::make_unique<kv::KeyCacheFilter>());
  }
  if (stages.count(kGib) != 0) {
    auto gib = std::make_unique<kv::GibFilter>(/*attach_bitmap=*/true);
    std::vector<kv::GibFilter::Block> blocks;
    for (std::size_t b = 0; b < kBlocks; ++b) {
      blocks.push_back(
          {b * kBlockNumel, kBlockNumel, 4.0 * kBlockNumel});
    }
    gib->set_blocks(std::move(blocks));
    gib->set_selection({{1, 0, 1, 1}});  // drop block 1
    p.add(std::move(gib));
  }
  if (stages.count(kTopK) != 0) {
    p.add(std::make_unique<kv::TopKFilter>(kv::CompressionMode::TopK,
                                           kTopKFrac, 5));
  }
  if (stages.count(kQ8) != 0) {
    p.add(std::make_unique<kv::QuantizeInt8Filter>());
  }
  if (stages.count(kDeltaXor) != 0) {
    p.add(std::make_unique<kv::DeltaXorFilter>());
  }
  return p;
}

std::vector<float> round_values(int round) {
  std::vector<float> vals(kNumel);
  for (std::size_t i = 0; i < kNumel; ++i) {
    // Distinct magnitudes (deterministic top-k), varying across rounds.
    vals[i] = (i % 2 != 0 ? -1.0f : 1.0f) * 0.01f *
              static_cast<float>(i + 1 + 7 * static_cast<std::size_t>(round));
  }
  return vals;
}

/// The lossy projection the receiver must end up with, computed
/// independently of the pipeline.
std::vector<float> expected_view(std::vector<float> vals,
                                 const std::set<Stage>& stages) {
  if (stages.count(kGib) != 0) {
    for (std::size_t i = kBlockNumel; i < 2 * kBlockNumel; ++i) {
      vals[i] = 0.0f;  // the dropped block
    }
  }
  if (stages.count(kTopK) != 0) {
    util::Rng unused(1);  // TopK selection is threshold-based, RNG untouched
    (void)kv::sparsify(vals, kv::CompressionMode::TopK, kTopKFrac, unused);
  }
  if (stages.count(kQ8) != 0) (void)kv::quantize_dequantize_int8(vals);
  return vals;
}

void check_composition(const std::set<Stage>& stages) {
  kv::FilterPipeline sender = make_pipeline(stages);
  kv::FilterPipeline receiver = make_pipeline(stages);
  SCOPED_TRACE("pipeline " + sender.name());
  const std::vector<kv::Key> keys = {0, 1, 2, 3};
  for (int round = 0; round < 3; ++round) {
    const std::vector<float> vals = round_values(round);
    kv::KvMessage m;
    m.begin(kv::Op::kPush, 1, static_cast<std::uint64_t>(round),
            {0, kBlocks});
    m.keys = keys;
    m.set_values(vals, 4.0 * static_cast<double>(kNumel));
    sender.encode(m);
    EXPECT_GT(m.wire_bytes(), 0.0);

    kv::KvMessage d = kv::deserialize(kv::serialize(m));
    EXPECT_DOUBLE_EQ(d.wire_bytes(), m.wire_bytes());
    receiver.decode(d);

    EXPECT_EQ(d.values, expected_view(vals, stages));
    EXPECT_EQ(d.keys, keys);
    EXPECT_EQ(d.key_sig, 0u);
    EXPECT_FALSE(d.compact);
    EXPECT_FALSE(d.delta_encoded);
  }
}

TEST(FilterCompositions, AllPairs) {
  const std::array<Stage, 5> all = {kKeyCache, kGib, kTopK, kQ8, kDeltaXor};
  for (std::size_t a = 0; a < all.size(); ++a) {
    for (std::size_t b = a + 1; b < all.size(); ++b) {
      check_composition({all[a], all[b]});
    }
  }
}

TEST(FilterCompositions, AllTriples) {
  const std::array<Stage, 5> all = {kKeyCache, kGib, kTopK, kQ8, kDeltaXor};
  for (std::size_t a = 0; a < all.size(); ++a) {
    for (std::size_t b = a + 1; b < all.size(); ++b) {
      for (std::size_t c = b + 1; c < all.size(); ++c) {
        check_composition({all[a], all[b], all[c]});
      }
    }
  }
}

TEST(FilterCompositions, GibTopKQ8AccountingComposes) {
  // The acceptance stack: GIB ∘ top-k ∘ int8. Value bytes shrink at each
  // stage (block projection → kept elements → a quarter of that), the
  // index channel carries the bitmap + kept indices, meta the fp32 scale.
  const std::set<Stage> stages = {kGib, kTopK, kQ8};
  kv::FilterPipeline p = make_pipeline(stages);
  kv::KvMessage m;
  m.begin(kv::Op::kPush, 0, 1, {0, kBlocks});
  m.set_values(round_values(0), 4.0 * static_cast<double>(kNumel));
  p.encode(m);
  const double kept = static_cast<double>(m.indices.size());
  EXPECT_DOUBLE_EQ(m.value_bytes, kept * 4.0 / 4.0);
  EXPECT_DOUBLE_EQ(m.index_bytes,
                   4.0 + (kBlocks + 7) / 8 + kept * 4.0);
  EXPECT_DOUBLE_EQ(m.meta_bytes, 4.0);
  EXPECT_DOUBLE_EQ(m.wire_bytes(), m.value_bytes + m.index_bytes +
                                       m.meta_bytes + kv::kFrameOverheadBytes);
}

// ------------------------------------------------- top-k encode oracle
//
// The Top-K encode selects its threshold over the positive magnitudes only
// and writes indices with a compress-store kernel. The oracle is the
// original encode: a full-array nth_element, the scalar tie loop and a
// push_back index scan. Payloads are GIB-shaped (whole blocks cleared,
// about half of the cleared entries −0), with zero counts just below, at
// and just above n − keep, and a run of entries tied at the threshold.

struct OracleEncode {
  std::vector<float> values;
  std::size_t kept = 0;
  std::vector<std::uint32_t> indices;
};

OracleEncode oracle_topk_encode(std::vector<float> vals,
                                double keep_fraction) {
  const std::size_t n = vals.size();
  const auto keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(keep_fraction *
                                               static_cast<double>(n))));
  OracleEncode out;
  out.kept = n;
  if (keep < n) {
    std::vector<float> mags(n);
    for (std::size_t i = 0; i < n; ++i) mags[i] = std::fabs(vals[i]);
    std::vector<float> sel = mags;
    std::nth_element(sel.begin(),
                     sel.begin() + static_cast<std::ptrdiff_t>(keep - 1),
                     sel.end(), std::greater<float>());
    const float threshold = sel[keep - 1];
    std::size_t above = 0;
    for (float mag : mags) above += mag > threshold ? 1 : 0;
    std::size_t slots = keep - above;
    for (std::size_t i = 0; i < n; ++i) {
      if (mags[i] > threshold) continue;
      if (mags[i] == threshold && slots > 0) {
        --slots;
      } else {
        vals[i] = 0.0f;
      }
    }
    out.kept = keep - slots;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (vals[i] != 0.0f) out.indices.push_back(static_cast<std::uint32_t>(i));
  }
  out.values = std::move(vals);
  return out;
}

std::vector<float> gib_shaped_payload(std::size_t n, std::size_t zeros,
                                      std::size_t keep, util::Rng& rng) {
  std::vector<float> vals(n);
  for (float& v : vals) v = static_cast<float>(rng.normal());
  // Clear `zeros` entries a block at a time, blocks in shuffled order.
  const std::size_t block = 1 + rng.uniform_u64(48);
  std::vector<std::size_t> starts;
  for (std::size_t b = 0; b < n; b += block) starts.push_back(b);
  rng.shuffle(starts);
  std::size_t cleared = 0;
  for (std::size_t b : starts) {
    for (std::size_t i = b; i < std::min(n, b + block) && cleared < zeros;
         ++i, ++cleared) {
      vals[i] = rng.bernoulli(0.5) ? -0.0f : 0.0f;
    }
  }
  // A run of entries equal in magnitude to the keep-th largest: they tie
  // at the threshold, which stays that magnitude.
  std::vector<float> positive;
  for (float v : vals) {
    if (v != 0.0f) positive.push_back(std::fabs(v));
  }
  if (keep >= 1 && positive.size() >= keep) {
    std::nth_element(positive.begin(),
                     positive.begin() + static_cast<std::ptrdiff_t>(keep - 1),
                     positive.end(), std::greater<float>());
    const float tie = positive[keep - 1];
    std::size_t run = 0;
    for (std::size_t i = rng.uniform_u64(n); i < n && run < 6; ++i) {
      if (vals[i] == 0.0f) continue;
      vals[i] = (i % 2 == 0 ? tie : -tie);
      ++run;
    }
  }
  return vals;
}

std::vector<std::uint32_t> float_bits(const std::vector<float>& v) {
  std::vector<std::uint32_t> bits(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    bits[i] = std::bit_cast<std::uint32_t>(v[i]);
  }
  return bits;
}

TEST(TopKEncodeOracle, MatchesFullSelectionOnGibShapedPayloads) {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 17; ++n) sizes.push_back(n);
  sizes.push_back(2164);
  sizes.push_back(4099);
  for (std::size_t n : sizes) {
    if (n == 0) {
      kv::TopKFilter f(kv::CompressionMode::TopK, 0.25, 1);
      kv::KvMessage m;
      f.encode(m);
      EXPECT_FALSE(m.sparse);
      EXPECT_TRUE(m.indices.empty());
      EXPECT_EQ(f.last_kept(), 0u);
      continue;
    }
    const double dn = static_cast<double>(n);
    std::vector<double> fractions = {1.0 / dn, 0.25, 0.5};
    if (n > 1) fractions.push_back((dn - 1.0) / dn);
    for (double frac : fractions) {
      // One filter per (n, keep): its scratch is reused across payloads.
      kv::TopKFilter f(kv::CompressionMode::TopK, frac, 1);
      const auto keep = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::llround(frac * dn)));
      const std::size_t at = n - std::min(keep, n);
      const std::size_t d = std::max<std::size_t>(1, n / 20);
      for (std::size_t zeros :
           {at >= d ? at - d : 0, at, std::min(n, at + d)}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
          util::Rng rng(seed * 1000003 + n * 31 + zeros);
          const std::vector<float> payload =
              gib_shaped_payload(n, zeros, keep, rng);
          const OracleEncode want = oracle_topk_encode(payload, frac);
          kv::KvMessage m;
          m.set_values(payload, 4.0 * dn);
          f.encode(m);
          SCOPED_TRACE(::testing::Message() << "n=" << n << " keep=" << keep
                                            << " zeros=" << zeros
                                            << " seed=" << seed);
          EXPECT_EQ(float_bits(m.values), float_bits(want.values));
          EXPECT_EQ(f.last_kept(), want.kept);
          EXPECT_EQ(m.indices, want.indices);
        }
      }
    }
  }
}

}  // namespace
}  // namespace osp
