// One PS-shard session: the failover lifecycle every sharded sync model
// shares (KvBSP and its profiles, OSP's RS and ICS stages).
//
// The session owns the versioned key store, the replica chains, and per
// logical shard the host serving it and an epoch that fences stale
// arrivals. The sync model keeps only what is its own: which workers
// pushed what, and how a round closes.
//
// Traffic: push() and respond() send a KvMessage between a worker and a
// PS host as an Engine::worker_transfer, so a worker's pushes and answers
// die with it. The route comes from the cluster topology (an empty one is
// a co-located loopback). The flow size is exactly
// KvMessage::wire_bytes(): the composed filter pipeline's output plus the
// fixed serialization frame (kFrameOverheadBytes: magic | version |
// length | crc32) every message carries, so telemetry and flow sizes
// always equal what a serialized message would put on the wire.
//
// Placement: logical shard s is primary on host s; its backup is the
// ring successor on the consistent-hash ring key ownership already uses
// (kv/partition.hpp), so a membership change moves only the chains of the
// ring neighbours. One host has no backup.
//
// Freshness: the store's per-segment versions are the replica-sync
// predicate — a backup is fresh for key k iff its recorded version equals
// the store's. The replication stream trails the apply stream by exactly
// one update per segment, so at a crash the predicate selects exactly the
// segments whose tail update was still in flight, and catch-up ships only
// those (ascending key order).
//
//  * push() sends a worker's message to the shard's serving host. It is
//    skipped while the shard's whole chain is down, and the arrival
//    callback runs only if no repoint happened in flight.
//  * respond() sends a host's answer to a worker.
//  * applied() records a PS step: store bump plus replica note.
//  * answer() queues a PS answer (ps_apply_delay(bytes, 3.0)) on the
//    serving host and keeps it in a ledger until it fires, so an answer
//    that dies with its host's queue is re-driven — never re-applied.
//
// A repoint (the first alive host of a shard's chain changes at a PS crash
// or restart) runs, in this order: epoch bump; the model's `deposed` hook;
// stop if the whole chain is down; catch-up charged on the new host's
// queue, promotion accounting and telemetry on the model's collecting
// round; ledger re-submits of answers whose host died; the model's
// `repush` hook. The goldens pin this order.
//
// Determinism: on a healthy run all of this is in-memory bookkeeping — no
// flows, no RNG, no virtual-time cost beyond the pushes and answers the
// model would send anyway.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "kv/message.hpp"
#include "kv/partition.hpp"
#include "kv/store.hpp"
#include "runtime/engine.hpp"

namespace osp::kv {

class ShardSession {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// The sync model's half of a repoint.
  struct Hooks {
    /// The round shard s is collecting (promotion telemetry lands there).
    std::function<std::uint64_t(std::size_t)> collecting_round;
    /// The deposed host's collected arrivals are gone (optional).
    std::function<void(std::size_t)> deposed;
    /// Re-send what the new serving host must collect.
    std::function<void(std::size_t)> repush;
  };

  /// `num_shards` logical shards over `part`'s hosts (key k belongs to
  /// shard part.owner[k]); `key_bytes` prices catch-up traffic.
  void init(runtime::Engine& eng, const Partition& part,
            std::span<const double> key_bytes, std::size_t num_shards,
            Hooks hooks);

  /// The host serving `shard`, or npos while its whole chain is down.
  [[nodiscard]] std::size_t serving(std::size_t shard) const {
    return serving_.at(shard);
  }
  [[nodiscard]] const KvStore& store() const { return store_; }
  /// Keys whose backup is stale (telemetry's replica lag).
  [[nodiscard]] std::size_t lag() const;

  template <class F>
  void push(std::size_t worker, std::size_t shard, const KvMessage& m,
            F on_arrival) {
    const std::size_t host = serving_[shard];
    if (host == npos) return;  // issued by the repush at the restart
    eng_->worker_transfer(
        worker, eng_->cluster().route_to_ps(worker, host), m.wire_bytes(),
        [this, shard, epoch = epochs_[shard], f = std::move(on_arrival)] {
          if (epoch == epochs_[shard]) f();  // else: a deposed host
        });
  }

  /// Host `host`'s answer `m` to worker `worker`; `done` runs on arrival.
  template <class F>
  void respond(std::size_t worker, std::size_t host, const KvMessage& m,
               F done) {
    eng_->worker_transfer(worker, eng_->cluster().route_from_ps(worker, host),
                          m.wire_bytes(), std::move(done));
  }

  /// The PS stepped the keys with mask[k] set.
  void applied(const std::vector<bool>& mask);

  /// Queue an answer on the shard's serving host; `fire(host)` sends it.
  void answer(std::size_t shard, double bytes,
              std::function<void(std::size_t)> fire);

  void on_ps_crashed(std::size_t ps);
  void on_ps_restarted(std::size_t ps);

  void save_state(util::serde::Writer& w) const;
  /// In-flight answers are empty at the drain barrier a snapshot is taken
  /// at, so loading clears the ledger.
  void load_state(util::serde::Reader& r);

 private:
  struct Answer {
    std::uint64_t id = 0;
    std::size_t shard = 0;
    std::size_t host = 0;  ///< host the job is queued on; npos once dead
    double bytes = 0.0;
    std::function<void(std::size_t)> fire;
  };
  void submit(const Answer& a);
  /// Re-submit the shard's answers whose job died (host npos) on its
  /// serving host.
  void resubmit(std::size_t shard);
  void repoint(std::size_t shard);

  runtime::Engine* eng_ = nullptr;
  Hooks hooks_;
  KvStore store_;
  std::vector<std::size_t> owner_;                ///< key → shard
  std::vector<double> key_bytes_;                 ///< per key
  std::vector<std::uint64_t> backup_versions_;    ///< per key
  std::vector<std::vector<std::size_t>> chains_;  ///< per shard
  std::vector<bool> alive_;                       ///< per host
  std::vector<std::size_t> serving_;              ///< per shard
  std::vector<std::uint64_t> epochs_;             ///< per shard
  std::vector<Answer> answers_;                   ///< queued, not fired
  std::uint64_t next_answer_ = 0;
};

}  // namespace osp::kv
