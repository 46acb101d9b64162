// KV transport: moves messages between workers and parameter-server
// shards over the engine's simulated network.
//
// The transport charges exactly KvMessage::wire_bytes() per send — the
// composed filter pipeline's output plus the fixed serialization frame
// (kFrameOverheadBytes: magic | version | length | crc32) every message
// carries — and adds nothing of its own, so telemetry and flow sizes
// always equal what a serialized message would put on the wire.
//
// Routes come from the cluster topology: an empty route is a co-located
// loopback and completes through the engine's event queue (deterministic
// callback ordering, visible to the checkpoint quiescence check).
//
// Ownership mirrors the two historical call styles:
//  * owned = true  — Engine::worker_transfer semantics: the flow belongs
//    to `worker`, passes the fault layer (delay/drop injection) and is
//    cancelled if the worker crashes mid-transfer, so the payload is not
//    delivered posthumously.
//  * owned = false — a plain network flow (or engine loopback), started
//    inline in send(): survives worker crashes; used by barrier models
//    whose PS-side bookkeeping tolerates late arrivals.
#pragma once

#include <cstddef>
#include <functional>

#include "kv/message.hpp"
#include "runtime/engine.hpp"

namespace osp::kv {

class Transport {
 public:
  Transport() = default;

  void bind(runtime::Engine& eng) { eng_ = &eng; }
  [[nodiscard]] bool bound() const { return eng_ != nullptr; }

  /// worker → PS `ps` (gradient push).
  void push(std::size_t worker, std::size_t ps, const KvMessage& m,
            bool owned, std::function<void()> done);

  /// PS `ps` → worker (parameter response / pull answer).
  void respond(std::size_t worker, std::size_t ps, const KvMessage& m,
               bool owned, std::function<void()> done);

 private:
  void send(std::size_t worker, std::vector<sim::LinkId> route, double bytes,
            bool owned, std::function<void()> done);

  runtime::Engine* eng_ = nullptr;
};

}  // namespace osp::kv
