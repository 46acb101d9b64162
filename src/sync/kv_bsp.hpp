// BSP on the KV core — the one synchronous aggregate-then-update PS loop
// behind every KV-core BSP variant: plain KvBSP with a composable filter
// pipeline, BSP sharded over several PSes (§6.1), the Top-K/Random-K
// sparsified baselines (§2.2.2, §7) and 8-bit quantized BSP.
//
// Per round, every worker pushes its gradient to each shard's serving
// host. Each shard closes its rounds on its own sync::RoundBarrier
// (sync/round_barrier.hpp, which states the close rule and the survival
// contract): with no faults and no deadline, once all N pieces have
// arrived; a crashed worker stops gating it, and with rs_timeout_s > 0 the
// deadline closes it with the pieces it has. At the close the shard takes
// the uniform mean of its contributors' gradients (1/N when all N
// contributed), steps its blocks, bumps their store versions and
// broadcasts them as a version-stamped pull response to the contributors
// still awaiting it. A worker resumes when every shard has answered it; a
// worker the shard closed without (a late push, a lost answer) gets a
// catch-up pull of the shard's keys from its serving host instead.
// Shards close independently, so one can close a round without a worker
// (it crashed, or a deadline passed) while another still collects it. The
// worker's next push goes to the earliest round a shard collects: on a
// shard that is ahead it lands late and is answered by a catch-up pull,
// so the shards count the worker in the same round again. The key space
// runs in one of two layouts:
//  * one logical shard holding every key (primary host 0, ring-successor
//    backup): pushes are the worker's full gradient, encoded in place
//    through the filter pipeline (key-cache ∘ GIB ∘ top-k ∘ int8), and
//    the PS trains on each message's decoded receiver view;
//  * one byte-balanced shard per PS (BytePS-style, kv/partition.hpp):
//    pushes address the shard's key list and the gradient stays
//    by-reference in the worker's buffer. Filters do not apply here.
//
// PS failover runs through one kv::ShardSession (kv/shard_session.hpp):
// each shard is primary on one host with a ring-successor backup. When
// the serving host crashes or restarts the session repoints the shard,
// catches the new host up and re-submits a broadcast that died with the
// old host's queue (never re-applied). The deposed host's arrivals are
// withdrawn from the shard's barrier, and workers that await the
// collecting round re-push to the new host.
//
// The accounting profile fixes the byte scale each baseline has always
// charged, which the sync goldens pin:
//
//   profile  | layout | push scale   | response bytes        | PS apply
//   ---------+--------+--------------+-----------------------+----------
//   kKv      | one    | 4 B/element  | dense                 | dense
//   kSharded | per-PS | block bytes  | dense (of the shard)  | dense
//   kTopK    | one    | 4 B/element  | min(model, 8·support) | response
//   kQ8      | one    | model_bytes  | dense/4 + 4           | dense
//
// "4 B/element" is the proxy payload's own fp32 size, the self-consistent
// scale that makes composed-filter accounting comparable (EXPERIMENTS.md
// wire-bytes table); the other scales are the real model's. Telemetry
// `important_bytes` is the round's summed push wire bytes — exactly what
// the session's transfers charged.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "kv/compress.hpp"
#include "kv/filter.hpp"
#include "kv/message.hpp"
#include "kv/shard_session.hpp"
#include "runtime/sync_model.hpp"
#include "sync/round_barrier.hpp"

namespace osp::sync {

enum class KvBspProfile { kKv, kSharded, kTopK, kQ8 };

struct KvBspOptions {
  /// Which baseline's byte accounting, shard layout and name to use (see
  /// the table above).
  KvBspProfile profile = KvBspProfile::kKv;
  /// Fraction of total block bytes the GIB stage keeps (by descending
  /// per-block mean |aggregate|; round 1 keeps everything). Outside
  /// (0, 1) the stage is omitted.
  double gib_keep_fraction = -1.0;
  /// Charge the serialized GIB bitmap (4 + ceil(B/8) bytes) per message.
  bool gib_attach_bitmap = true;
  /// Top-k keep fraction over the (post-GIB) dense payload. Outside
  /// (0, 1) the stage is omitted, except under kTopK, which always runs
  /// it and accepts (0, 1].
  double topk_keep_fraction = -1.0;
  kv::CompressionMode topk_mode = kv::CompressionMode::TopK;
  std::uint64_t topk_seed = 4242;
  /// Per-worker residual memory (DGC-style): what the pipeline did not
  /// transmit is added back into the next gradient before encoding.
  bool error_feedback = false;
  /// Append the int8 quantization stage.
  bool quantize_int8 = false;
  /// Prepend the key-cache stage (first push pays the key list, repeats
  /// pay an 8-byte signature).
  bool key_cache = false;
};

/// BSP sharded across every PS: "BSP(xP PS)".
[[nodiscard]] KvBspOptions sharded_bsp();
/// Top-K / Random-K sparsified BSP: "TopK(25%)", "RandomK(10%)+EF". The
/// dropped gradients are lost unless `error_feedback` is on.
[[nodiscard]] KvBspOptions compressed_bsp(kv::CompressionMode mode,
                                          double keep_fraction,
                                          std::uint64_t seed = 99,
                                          bool error_feedback = false);
/// 8-bit quantized BSP: "Q8-BSP".
[[nodiscard]] KvBspOptions quantized_bsp();

class KvBspSync : public runtime::SyncModel {
 public:
  explicit KvBspSync(KvBspOptions options = {});

  [[nodiscard]] std::string name() const override;
  void attach(runtime::Engine& eng) override;
  void on_gradient_ready(std::size_t worker) override;
  void on_worker_crashed(std::size_t worker) override;
  void on_ps_crashed(std::size_t ps) override;
  void on_ps_restarted(std::size_t ps) override;
  void save_state(util::serde::Writer& w) const override;
  void load_state(util::serde::Reader& r) override;
  [[nodiscard]] bool drained() const override;

  /// Introspection for tests: the last round's summed push wire bytes
  /// (what telemetry records), the host serving shard `shard` and the
  /// rounds it has closed.
  [[nodiscard]] double last_round_push_bytes() const {
    return last_round_push_bytes_;
  }
  [[nodiscard]] std::size_t serving_host(std::size_t shard = 0) const {
    return session_.serving(shard);
  }
  [[nodiscard]] std::uint64_t rounds_closed(std::size_t shard) const {
    return shards_[shard].barrier.rounds_closed();
  }

 private:
  /// A key shard and the barrier its rounds close on. Pinned: the
  /// barrier's timer holds its address.
  struct Shard final : RoundBarrier::Owner {
    Shard(KvBspSync& sync, std::size_t index) : sync(sync), index(index) {}
    KvBspSync& sync;
    std::size_t index;
    std::vector<kv::Key> keys;  // owned keys (= block ids), ascending
    std::vector<bool> mask;     // the same keys as a block mask
    double dense_bytes = 0.0;   // unfiltered push size
    RoundBarrier barrier;

    void round_closed(std::uint64_t round, std::size_t contributed) override {
      sync.record_full_round(round, contributed);
    }
    bool catch_up(std::size_t worker, std::uint64_t round) override {
      return sync.catch_up(index, worker, round);
    }
    void step_round(std::uint64_t round,
                    const std::vector<bool>& contributors) override {
      sync.aggregate(index, round, contributors);
    }
  };

  [[nodiscard]] bool per_ps() const {
    return options_.profile == KvBspProfile::kSharded;
  }
  /// Fill worker w's inbox with its gradient and run the pipeline.
  void encode_push(std::size_t worker);
  /// Send worker w's push of `round` for `shard` to the shard's serving
  /// host.
  void push(std::size_t worker, std::size_t shard, std::uint64_t round);
  /// Step the shard with the mean of `contributors`' gradients and queue
  /// its response broadcast.
  void aggregate(std::size_t shard, std::uint64_t round,
                 const std::vector<bool>& contributors);
  /// Send worker w a pull of the shard's keys answering `round`; false
  /// while the shard's whole chain is down.
  bool catch_up(std::size_t shard, std::size_t worker, std::uint64_t round);
  /// Send worker w the shard's keys at their current versions from `host`,
  /// answering `round`, charged at `bytes`.
  void answer(std::size_t shard, std::size_t host, std::size_t worker,
              std::uint64_t round, double bytes);
  /// Shard `shard`'s answer of `round` (response or pull) reached w.
  void deliver(std::size_t shard, std::size_t worker, std::uint64_t round);
  /// Recompute the GIB keep mask from per-block mean |agg| under the
  /// byte budget (descending importance, always >= 1 block).
  void update_gib_selection();

  KvBspOptions options_;
  kv::FilterPipeline pipeline_;
  kv::GibFilter* gib_ = nullptr;  // owned by pipeline_
  std::vector<std::uint8_t> gib_keep_;
  kv::ShardSession session_;
  std::deque<Shard> shards_;
  std::vector<kv::KvMessage> inbox_;          // per worker, reused
  std::vector<std::vector<float>> residual_;  // per worker, error feedback
  std::vector<float> agg_;
  double tel_push_bytes_ = 0.0;
  double last_round_push_bytes_ = 0.0;
};

}  // namespace osp::sync
