// KV wire messages.
//
// A KvMessage is one push / pull / pull-response addressed to a key
// range (contiguous [begin,end)) or an explicit key list (byte-balanced
// shards are not contiguous). It carries two parallel representations:
//
//  * the *proxy payload* — `values` etc., the real floats the receiving
//    end trains on (real numerics, simulated time);
//  * the *simulated byte accounting* — value/index/meta wire bytes at
//    the workload's real-model scale, which is what the network
//    simulator charges. Filters transform both sides consistently.
//
// In memory `values` stays dense (zeros at dropped positions) so filter
// stages compose cheaply; serialize() writes the genuinely compact form
// (sparse support only) and deserialize() marks the message `compact`
// until FilterPipeline::decode scatters it back to dense.
//
// Serialized envelope (same shape as util::serde::write_file):
//   magic "OSPKVMSG" | u32 version | u64 payload len | payload | u32 CRC32
// Truncation, trailing bytes, bit flips and version skew are all
// rejected with util::CheckError — never mis-decoded (see tests/test_io).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "kv/key.hpp"

namespace osp::kv {

inline constexpr const char* kMessageMagic = "OSPKVMSG";
inline constexpr std::uint32_t kMessageVersion = 1;

/// Fixed per-message frame the serialized format carries regardless of the
/// payload: 8-byte magic, u32 format version, u64 payload length, u32 CRC.
inline constexpr double kFrameOverheadBytes = 8.0 + 4.0 + 8.0 + 4.0;

enum class Op : std::uint8_t { kPush = 0, kPull = 1, kPullResponse = 2 };

struct KvMessage {
  // ---- header ----
  Op op = Op::kPush;
  std::uint32_t sender = 0;           ///< worker id (push) or PS id
  std::uint64_t round = 0;
  KeyRange range{0, 0};               ///< contiguous address, if any
  std::vector<Key> keys;              ///< explicit keys (non-contiguous)
  std::vector<std::uint64_t> versions;  ///< per-key segment versions

  // ---- proxy payload ----
  std::vector<float> values;          ///< dense receiver view
  std::vector<std::uint32_t> indices;   ///< sparse support (top-k)
  std::vector<std::uint8_t> block_mask; ///< per-block keep mask (GIB)
  float quant_scale = 0.0f;
  std::uint8_t quant_bits = 0;        ///< 0 = unquantized
  bool sparse = false;                ///< only `indices` positions travel
  bool delta_encoded = false;         ///< values are XOR deltas on the wire
  bool compact = false;               ///< values hold support only (post-deserialize)
  std::uint64_t dense_numel = 0;      ///< full value count before sparsify
  std::uint64_t key_sig = 0;          ///< key-cache signature (0 = keys inline)

  // ---- simulated byte accounting (real-model scale) ----
  double dense_value_bytes = 0.0;     ///< unfiltered payload size
  double value_bytes = 0.0;           ///< value payload after filters
  double index_bytes = 0.0;           ///< index / bitmap side channel
  double meta_bytes = 0.0;            ///< scales, signatures, piggybacks

  /// Total simulated cost a send charges for this message (the flow size
  /// of ShardSession::push and respond): the filtered payload plus the
  /// fixed frame every serialized message carries (magic | version |
  /// length | crc32).
  [[nodiscard]] double wire_bytes() const {
    return value_bytes + index_bytes + meta_bytes + kFrameOverheadBytes;
  }

  /// Re-arm a (possibly reused) message for a fresh send: resets every
  /// field except `values`, whose buffer the sender refills in place.
  void begin(Op o, std::uint32_t sender_id, std::uint64_t r, KeyRange addr) {
    op = o;
    sender = sender_id;
    round = r;
    range = addr;
    keys.clear();
    versions.clear();
    indices.clear();
    block_mask.clear();
    quant_scale = 0.0f;
    quant_bits = 0;
    sparse = delta_encoded = compact = false;
    dense_numel = 0;
    key_sig = 0;
    dense_value_bytes = value_bytes = index_bytes = meta_bytes = 0.0;
  }

  /// Initialize the payload and its dense byte accounting in one step.
  void set_values(std::span<const float> v, double simulated_dense_bytes) {
    values.assign(v.begin(), v.end());
    dense_numel = v.size();
    dense_value_bytes = simulated_dense_bytes;
    value_bytes = simulated_dense_bytes;
    index_bytes = 0.0;
    meta_bytes = 0.0;
  }

  /// Like set_values but only sets the accounting (the payload stays
  /// by-reference in the sender's buffers — sharded/OSP pushes).
  void set_accounting(double simulated_dense_bytes) {
    dense_value_bytes = simulated_dense_bytes;
    value_bytes = simulated_dense_bytes;
    index_bytes = 0.0;
    meta_bytes = 0.0;
  }
};

/// Serialize under the OSPKVMSG envelope. Sparse messages are written in
/// compact form (support values only).
[[nodiscard]] std::vector<std::uint8_t> serialize(const KvMessage& m);

/// Parse and validate an OSPKVMSG envelope. Throws util::CheckError on
/// wrong magic, unsupported version, truncation, trailing bytes, CRC
/// mismatch, or any structurally inconsistent payload (out-of-range op,
/// index out of bounds, arity mismatches).
[[nodiscard]] KvMessage deserialize(std::span<const std::uint8_t> data);

}  // namespace osp::kv
