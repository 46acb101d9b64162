#include "kv/filter.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/check.hpp"
#include "util/serde.hpp"
#include "util/simd.hpp"

namespace osp::kv {

namespace {

/// FNV-1a over a key list — the key-cache signature.
std::uint64_t fnv1a_keys(std::span<const Key> keys) {
  std::uint64_t h = 1469598103934665603ULL;
  for (Key k : keys) {
    for (int b = 0; b < 8; ++b) {
      h ^= (k >> (8 * b)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  }
  // 0 is reserved for "keys travel inline".
  return h == 0 ? 1 : h;
}

std::vector<std::uint32_t> value_bits(std::span<const float> values) {
  std::vector<std::uint32_t> bits(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    bits[i] = std::bit_cast<std::uint32_t>(values[i]);
  }
  return bits;
}

}  // namespace

void MessageFilter::save_state(util::serde::Writer&) const {}
void MessageFilter::load_state(util::serde::Reader&) {}

// ---------------------------------------------------------------- pipeline

MessageFilter& FilterPipeline::add(std::unique_ptr<MessageFilter> f) {
  stages_.push_back(std::move(f));
  return *stages_.back();
}

void FilterPipeline::encode(KvMessage& m) {
  for (auto& f : stages_) f->encode(m);
}

void FilterPipeline::decode(KvMessage& m) {
  for (auto it = stages_.rbegin(); it != stages_.rend(); ++it) {
    (*it)->decode(m);
  }
}

std::string FilterPipeline::name() const {
  std::string out;
  for (const auto& f : stages_) {
    if (!out.empty()) out += "∘";  // '∘'
    out += f->name();
  }
  return out;
}

void FilterPipeline::save_state(util::serde::Writer& w) const {
  w.u8(1);  // pipeline state version
  w.u64(stages_.size());
  for (const auto& f : stages_) {
    w.str(f->name());
    util::serde::Writer sub;
    f->save_state(sub);
    w.bytes(sub.data());
  }
}

void FilterPipeline::load_state(util::serde::Reader& r) {
  OSP_CHECK(r.u8() == 1, "unsupported filter-pipeline state version");
  OSP_CHECK(r.u64() == stages_.size(), "filter-pipeline stage count mismatch");
  for (const auto& f : stages_) {
    OSP_CHECK(r.str() == f->name(), "filter-pipeline stage order mismatch");
    const std::vector<std::uint8_t> sub_bytes = r.bytes();
    util::serde::Reader sub(sub_bytes);
    f->load_state(sub);
    sub.expect_done();
  }
}

// ---------------------------------------------------------------- key cache

void KeyCacheFilter::encode(KvMessage& m) {
  if (m.keys.empty()) return;
  const std::uint64_t sig = fnv1a_keys(m.keys);
  const auto it = sent_.find(sig);
  if (it != sent_.end() && it->second == m.keys) {
    // The receiver has this list: send the signature instead.
    m.key_sig = sig;
    m.keys.clear();
    m.meta_bytes += 8.0;
    return;
  }
  sent_[sig] = m.keys;
  m.key_sig = 0;
  m.index_bytes += 8.0 * static_cast<double>(m.keys.size());
}

void KeyCacheFilter::decode(KvMessage& m) {
  if (m.key_sig != 0) {
    OSP_CHECK(m.keys.empty(), "key-cached message carries inline keys");
    const auto it = recv_.find(m.key_sig);
    OSP_CHECK(it != recv_.end(), "key-cache signature unknown to receiver");
    m.keys = it->second;
    m.key_sig = 0;
    return;
  }
  if (!m.keys.empty()) recv_[fnv1a_keys(m.keys)] = m.keys;
}

// ----------------------------------------------------------------- XOR delta

void DeltaXorFilter::encode(KvMessage& m) {
  if (m.sparse || m.values.empty()) return;
  const StreamKey stream{m.sender, m.range.begin};
  std::vector<std::uint32_t> cur = value_bits(m.values);
  const auto it = sent_.find(stream);
  if (it == sent_.end() || it->second.size() != cur.size()) {
    sent_[stream] = std::move(cur);  // first message: travels raw
    return;
  }
  const std::vector<std::uint32_t>& prev = it->second;
  std::size_t nonzero_bytes = 0;
  for (std::size_t i = 0; i < cur.size(); ++i) {
    const std::uint32_t x = cur[i] ^ prev[i];
    m.values[i] = std::bit_cast<float>(x);
    for (int b = 0; b < 4; ++b) {
      nonzero_bytes += ((x >> (8 * b)) & 0xffU) != 0 ? 1 : 0;
    }
  }
  // Zero-byte elision: a presence bit per payload byte + the bytes that
  // actually changed. Scales whatever the value channel currently costs.
  const double raw_bytes = 4.0 * static_cast<double>(cur.size());
  const double elided =
      std::ceil(raw_bytes / 8.0) + static_cast<double>(nonzero_bytes);
  m.value_bytes *= elided / raw_bytes;
  m.delta_encoded = true;
  it->second = std::move(cur);  // new sender baseline: the pre-XOR values
}

void DeltaXorFilter::decode(KvMessage& m) {
  const StreamKey stream{m.sender, m.range.begin};
  if (!m.delta_encoded) {
    if (!m.sparse && !m.values.empty()) recv_[stream] = value_bits(m.values);
    return;
  }
  const auto it = recv_.find(stream);
  OSP_CHECK(it != recv_.end() && it->second.size() == m.values.size(),
            "XOR-delta message without a matching receiver baseline");
  for (std::size_t i = 0; i < m.values.size(); ++i) {
    const std::uint32_t orig =
        std::bit_cast<std::uint32_t>(m.values[i]) ^ it->second[i];
    m.values[i] = std::bit_cast<float>(orig);
    it->second[i] = orig;  // new receiver baseline
  }
  m.delta_encoded = false;
}

// ------------------------------------------------------------------- int8

void QuantizeInt8Filter::encode(KvMessage& m) {
  if (!m.values.empty()) {
    m.quant_scale = quantize_dequantize_int8(m.values);
    m.quant_bits = 8;
  }
  m.value_bytes /= 4.0;
  m.meta_bytes += 4.0;  // the fp32 scale
}

void QuantizeInt8Filter::decode(KvMessage&) {
  // Values already carry the dequantized receiver view — the lossy
  // projection happened on encode, exactly once.
}

// ------------------------------------------------------------------- top-k

TopKFilter::TopKFilter(CompressionMode mode, double keep_fraction,
                       std::uint64_t seed)
    : mode_(mode), keep_fraction_(keep_fraction), rng_(seed) {
  OSP_CHECK(keep_fraction > 0.0 && keep_fraction <= 1.0,
            "keep fraction must be in (0, 1]");
}

void TopKFilter::encode(KvMessage& m) {
  if (m.values.empty() || m.compact) return;
  if (m.dense_numel == 0) m.dense_numel = m.values.size();
  const std::size_t kept = sparsify(std::span<float>(m.values), mode_,
                                    keep_fraction_, rng_, scratch_);
  last_kept_ = kept;
  // The kernel needs room for n indices; the message keeps only the
  // nonzero ones (sparsify checked that n fits in 32 bits).
  const std::size_t n = m.values.size();
  scratch_.idx.resize(n);
  const auto count = static_cast<std::ptrdiff_t>(
      util::simd::kernels().nonzero_indices(m.values.data(),
                                            scratch_.idx.data(), n));
  m.indices.assign(scratch_.idx.begin(), scratch_.idx.begin() + count);
  m.sparse = true;
  // Wire format: fp32 value + u32 index per kept element, replacing the
  // dense value accounting (so int8 composes after this stage).
  m.value_bytes = static_cast<double>(kept) * 4.0;
  m.index_bytes += static_cast<double>(kept) * 4.0;
}

void TopKFilter::decode(KvMessage& m) {
  if (!m.compact) return;
  OSP_CHECK(m.values.size() == m.indices.size(),
            "compact message support mismatch");
  std::vector<float> dense(m.dense_numel, 0.0f);
  for (std::size_t i = 0; i < m.indices.size(); ++i) {
    dense[m.indices[i]] = m.values[i];
  }
  m.values = std::move(dense);
  m.compact = false;
}

void TopKFilter::save_state(util::serde::Writer& w) const {
  w.u8(1);  // top-k filter state version
  const util::RngState rng = rng_.state();
  for (std::uint64_t word : rng.s) w.u64(word);
  w.boolean(rng.have_spare_normal);
  w.f64(rng.spare_normal);
}

void TopKFilter::load_state(util::serde::Reader& r) {
  OSP_CHECK(r.u8() == 1, "unsupported top-k filter state version");
  util::RngState rng;
  for (std::uint64_t& word : rng.s) word = r.u64();
  rng.have_spare_normal = r.boolean();
  rng.spare_normal = r.f64();
  rng_.set_state(rng);
}

// --------------------------------------------------------------------- GIB

void GibFilter::set_selection(std::vector<std::uint8_t> keep) {
  OSP_CHECK(keep.size() == blocks_.size(),
            "GIB selection arity must match the block layout");
  keep_ = std::move(keep);
}

void GibFilter::encode(KvMessage& m) {
  OSP_CHECK(keep_.size() == blocks_.size() && !blocks_.empty(),
            "GIB filter needs a block layout and selection");
  m.block_mask = keep_;
  double total = 0.0;
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    if (keep_[b] != 0) {
      total += blocks_[b].wire_bytes;
      continue;
    }
    if (!m.values.empty()) {
      const Block& blk = blocks_[b];
      OSP_CHECK(blk.offset + blk.numel <= m.values.size(),
                "GIB block layout exceeds the payload");
      std::fill(m.values.begin() + static_cast<std::ptrdiff_t>(blk.offset),
                m.values.begin() +
                    static_cast<std::ptrdiff_t>(blk.offset + blk.numel),
                0.0f);
    }
  }
  m.value_bytes = total;
  if (attach_bitmap_) {
    // Same cost model as core::Gib::wire_bytes(): u32 count + packed bits.
    m.index_bytes += 4.0 + static_cast<double>((blocks_.size() + 7) / 8);
  }
}

void GibFilter::decode(KvMessage&) {
  // Dropped blocks arrive as zeros in the dense view — nothing to undo.
}

}  // namespace osp::kv
