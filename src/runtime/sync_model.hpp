// The synchronization-model strategy interface.
//
// The Engine owns the per-worker compute loop; a SyncModel owns everything
// between "worker w's gradient is ready" and "worker w may start its next
// iteration". Implementations send every message as a worker-owned
// transfer (Engine::worker_transfer, directly or through
// kv::ShardSession) and apply parameter updates through the engine's PS
// accessors, then call eng().finish_sync(w).
//
// Survival contract (fault injection, see sim/faults.hpp): barrier-style
// models must not hang when a worker crashes or its messages stall. The
// engine notifies models through on_worker_crashed / on_worker_restarted.
// BSP's barrier, OSP's RS stage and each KV-core BSP shard keep the
// contract through sync::RoundBarrier (sync/round_barrier.hpp), whose
// header states it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "runtime/trace.hpp"

namespace osp::util::serde {
class Writer;
class Reader;
}  // namespace osp::util::serde

namespace osp::runtime {

class Engine;
struct SyncTelemetry;

/// Round deadlines for fault-tolerant synchronization. `rs_timeout_s`
/// bounds how long a gradient-collection round (BSP's barrier, OSP's RS
/// stage) waits after the first push of the round is sent; on expiry the
/// PS aggregates the arrivals it has and resyncs stragglers with a full
/// parameter pull. `ics_timeout_s` bounds OSP's in-computation stage; an
/// expired ICS round is abandoned (workers keep their LGP predictions —
/// §4.3's degradation path). 0 disables the respective deadline.
struct SyncTimeouts {
  double rs_timeout_s = 0.0;
  double ics_timeout_s = 0.0;
};

class SyncModel {
 public:
  virtual ~SyncModel() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Called once before the run starts. The default stores the engine.
  virtual void attach(Engine& eng) { eng_ = &eng; }

  /// Worker `worker` finished FP+BP; its gradient is available via
  /// eng().worker_gradient(worker). The implementation must eventually call
  /// eng().finish_sync(worker).
  virtual void on_gradient_ready(std::size_t worker) = 0;

  /// All workers completed (1-based) epoch `epoch`; `mean_loss` is the mean
  /// training loss across workers for that epoch. Drives Algorithm 1.
  virtual void on_epoch_complete(std::size_t epoch, double mean_loss) {
    (void)epoch;
    (void)mean_loss;
  }

  /// Fault notifications from the engine. A crashed worker's in-flight
  /// flows are already cancelled when this fires; implementations should
  /// stop waiting for it (e.g. re-check a barrier). Restart fires after
  /// the worker re-pulled the global model and is about to compute again.
  virtual void on_worker_crashed(std::size_t worker) { (void)worker; }
  virtual void on_worker_restarted(std::size_t worker) { (void)worker; }

  /// PS-shard fault notifications. When a PS crashes its serial queue is
  /// dropped (queued ps_submit callbacks never fire); models replicating
  /// key segments (kv/shard_session.hpp) repoint the crashed host's shards
  /// at their backups here and re-drive any exchange the dead host owed.
  /// Models without PS state may ignore both (the engine-level timeout /
  /// catch-up contract still applies). Restart fires when the host's
  /// queue is accepting work again.
  virtual void on_ps_crashed(std::size_t ps) { (void)ps; }
  virtual void on_ps_restarted(std::size_t ps) { (void)ps; }

  void set_timeouts(const SyncTimeouts& timeouts) { timeouts_ = timeouts; }
  [[nodiscard]] const SyncTimeouts& timeouts() const { return timeouts_; }

  // ---- checkpointing ----
  //
  // The engine only snapshots at a drain barrier: every worker parked at
  // an iteration boundary, no flows in flight, and drained() true. A model
  // therefore only serializes state that survives across rounds (round
  // counters, error-feedback residuals, tuner state, RNG streams) — never
  // in-flight round bookkeeping, which is empty by construction at the
  // barrier. The default implementations suit stateless models.

  /// Serialize persistent model state. Called only when drained().
  virtual void save_state(util::serde::Writer& w) const { (void)w; }

  /// Restore state written by save_state. Called after attach(), before
  /// any worker resumes.
  virtual void load_state(util::serde::Reader& r) { (void)r; }

  /// True when no synchronization round is in progress and no model-owned
  /// transfer is pending — i.e. state is snapshot-safe. A timer may still
  /// be armed if the snapshot fences it (sync/round_barrier.hpp).
  [[nodiscard]] virtual bool drained() const { return true; }

  // ---- observability ----

  /// Trace phase the engine records for the blocking gradient-ready →
  /// finish_sync span. OSP overrides this to kRs so its blocking stage is
  /// distinguishable from a generic barrier in the trace.
  [[nodiscard]] virtual TracePhase blocking_phase() const {
    return TracePhase::kSync;
  }

 protected:
  /// Telemetry helper for full-model exchanges: fetches (or creates) the
  /// record for `round` via Engine::telemetry_round and fills the common
  /// shape — close time now, `contributors`, every block "important",
  /// important_bytes = the full model. Models with a finer split (OSP,
  /// compressed) fill the record themselves instead. Safe to call when
  /// telemetry is disabled (writes go to a discarded scratch record).
  SyncTelemetry& record_full_round(std::uint64_t round,
                                   std::size_t contributors);

  [[nodiscard]] Engine& eng() { return *eng_; }
  [[nodiscard]] const Engine& eng() const { return *eng_; }

 private:
  Engine* eng_ = nullptr;
  SyncTimeouts timeouts_;
};

}  // namespace osp::runtime
