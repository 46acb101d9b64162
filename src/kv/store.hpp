// Versioned key-segment table of a parameter server.
//
// One segment per key: a contiguous run of the flat parameter vector
// (here one layer block) plus a monotonically increasing version that
// bumps every time the PS applies an update covering it. Responses stamp
// segment versions into their messages so a receiver can tell fresh data
// from a stale replay; checkpoints snapshot the table so a resumed run
// continues the same version stream (KV state must survive
// snapshot/resume — see runtime/checkpoint).
//
// The store does not own parameter memory: the engine's global parameter
// vector stays the single source of truth, and segments describe offsets
// into it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "kv/key.hpp"
#include "kv/message.hpp"

namespace osp::util::serde {
class Writer;
class Reader;
}  // namespace osp::util::serde

namespace osp::kv {

class KvStore {
 public:
  struct Segment {
    Key key = 0;
    std::size_t offset = 0;   ///< first element in the flat param vector
    std::size_t numel = 0;
    std::uint64_t version = 0;
  };

  /// Dense layout: key b covers [offsets[b], offsets[b] + numels[b]).
  void init(std::span<const std::size_t> offsets,
            std::span<const std::size_t> numels);

  [[nodiscard]] std::size_t num_segments() const { return segments_.size(); }
  [[nodiscard]] const Segment& segment(Key k) const;
  [[nodiscard]] std::uint64_t version(Key k) const { return segment(k).version; }
  [[nodiscard]] KeyRange key_range() const {
    return {0, static_cast<Key>(segments_.size())};
  }

  /// An update was applied to segment `k`.
  void bump(Key k);

  /// Stamp current versions into `m` — one per key in `m.keys`, or one
  /// per key of `m.range` when the key list is empty.
  void stamp_versions(KvMessage& m) const;

  void save_state(util::serde::Writer& w) const;
  /// Restores versions; the layout (keys/offsets/numels) must match the
  /// attached model — a mismatch throws.
  void load_state(util::serde::Reader& r);

 private:
  std::vector<Segment> segments_;
};

}  // namespace osp::kv
