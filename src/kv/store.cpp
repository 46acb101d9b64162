#include "kv/store.hpp"

#include "util/serde.hpp"

namespace osp::kv {

void KvStore::init(std::span<const std::size_t> offsets,
                   std::span<const std::size_t> numels) {
  OSP_CHECK(offsets.size() == numels.size(), "segment arity mismatch");
  segments_.clear();
  segments_.reserve(offsets.size());
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    segments_.push_back({static_cast<Key>(i), offsets[i], numels[i], 0});
  }
}

const KvStore::Segment& KvStore::segment(Key k) const {
  OSP_CHECK(k < segments_.size(), "segment key out of range");
  return segments_[static_cast<std::size_t>(k)];
}

void KvStore::bump(Key k) {
  OSP_CHECK(k < segments_.size(), "segment key out of range");
  ++segments_[static_cast<std::size_t>(k)].version;
}

void KvStore::stamp_versions(KvMessage& m) const {
  m.versions.clear();
  if (!m.keys.empty()) {
    m.versions.reserve(m.keys.size());
    for (Key k : m.keys) {
      // A message that addresses a contiguous range must not list keys
      // outside it (shard messages legitimately carry an empty range and
      // an explicit key list — those only need to be in-store).
      OSP_CHECK(m.range.size() == 0 ||
                    (k >= m.range.begin && k < m.range.end),
                "stamp_versions: listed key outside the message range");
      m.versions.push_back(version(k));
    }
    return;
  }
  m.versions.reserve(m.range.size());
  for (Key k = m.range.begin; k < m.range.end; ++k) {
    m.versions.push_back(version(k));
  }
}

void KvStore::save_state(util::serde::Writer& w) const {
  w.u8(1);  // KV store state version
  w.u64(segments_.size());
  for (const Segment& s : segments_) {
    w.u64(s.key);
    w.u64(s.offset);
    w.u64(s.numel);
    w.u64(s.version);
  }
}

void KvStore::load_state(util::serde::Reader& r) {
  OSP_CHECK(r.u8() == 1, "unsupported KV store state version");
  OSP_CHECK(r.u64() == segments_.size(),
            "KV store checkpoint segment count mismatch");
  for (Segment& s : segments_) {
    OSP_CHECK(r.u64() == s.key && r.u64() == s.offset && r.u64() == s.numel,
              "KV store checkpoint layout mismatch");
    s.version = r.u64();
  }
}

}  // namespace osp::kv
