// Run-level checkpoints with deterministic resume.
//
// A RunCheckpoint is a full snapshot of a training run at a drain barrier:
// every worker parked at an iteration boundary, no network flow or PS job
// in flight, and the sync model drained (no open RS/ICS round; a round
// barrier's armed timer is fenced by the snapshot, see
// sync/round_barrier.hpp). Because the snapshot point is quiescent, no
// in-flight event has to be serialized — the entire simulator queue is
// reconstructible from
// (a) the parked workers (released at the snapshot time on resume) and
// (b) the not-yet-executed entries of the fault schedule. Resuming from a
// checkpoint therefore replays the remainder of the run *bit-identically*:
// same parameters, same metrics, same event order.
//
// The fingerprint block (workload/sync names, worker count, seeds, model
// shape) is checked on restore so a checkpoint can never be loaded into a
// mismatched experiment; the serde envelope (see util/serde.hpp) rejects
// truncated, corrupted, or foreign files before any field is read.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/metrics.hpp"
#include "sim/faults.hpp"
#include "util/rng.hpp"
#include "util/serde.hpp"
#include "util/stats.hpp"

namespace osp::runtime {

/// Periodic checkpoint policy for the engine (EngineConfig::checkpoint).
struct CheckpointPolicy {
  /// Take a checkpoint every time all workers reach this many further
  /// iterations (0 disables checkpointing entirely).
  std::size_t every_iters = 0;
  /// File the latest checkpoint is written to (empty = keep in memory
  /// only; the in-memory copy still serves crashed-worker restores).
  std::string path;
  /// Stop the run right after the first checkpoint is written — models a
  /// preempted/killed job whose continuation is a resumed run.
  bool halt_after_checkpoint = false;
  /// Resume a previous run from this checkpoint file (empty = fresh run).
  std::string resume_from;
  /// Restore a crashed worker's state from the latest checkpoint (a local
  /// disk read) instead of re-pulling the full model from the PS over the
  /// network. Falls back to the network pull before the first checkpoint.
  bool restore_crashed_from_checkpoint = false;
  /// Local-disk read bandwidth used by checkpoint restores.
  double restore_read_bytes_per_s = 2e9;
};

/// Per-worker slice of a run checkpoint.
struct WorkerCheckpoint {
  std::vector<float> params;      ///< flat local replica
  util::RngState rng;             ///< straggler-jitter stream
  std::uint64_t iteration = 0;
  std::uint64_t epoch = 0;
  double epoch_loss_sum = 0.0;
  std::uint64_t epoch_loss_count = 0;
  bool done = false;
  bool parked = false;            ///< waiting at the drain barrier
  bool crashed = false;
  double crashed_at = 0.0;
  double pause_until = 0.0;
  /// Absolute sim time of the pending restart event; < 0 when none.
  double restart_at = -1.0;
};

struct RunCheckpoint {
  // ---- fingerprint (validated on restore) ----
  std::string workload_name;
  std::string sync_name;
  std::uint64_t num_workers = 0;
  std::uint64_t max_epochs = 0;
  std::uint64_t seed = 0;
  std::uint64_t num_ps = 0;
  std::uint64_t total_params = 0;
  std::uint64_t num_blocks = 0;
  std::uint64_t batches_per_epoch = 0;
  double momentum = 0.0;

  // ---- run position ----
  double sim_time = 0.0;              ///< virtual time of the snapshot
  std::uint64_t checkpoint_iter = 0;  ///< iteration boundary snapped at
  std::uint64_t checkpoints_taken = 0;

  // ---- engine state ----
  std::vector<float> global_params;
  std::vector<float> optimizer_velocity;  ///< empty when momentum == 0
  double samples_processed = 0.0;
  double next_eval_at_samples = 0.0;
  std::vector<std::size_t> epoch_done_counts;
  std::vector<double> epoch_loss_sums;
  std::vector<double> ps_busy_until;
  std::vector<bool> ps_crashed;           ///< per-PS crashed flag
  std::vector<double> ps_crashed_at;
  std::vector<double> ps_restart_at;      ///< pending restart (< 0: none)
  sim::FaultStats fault_stats;

  // ---- metrics recorder ----
  util::OnlineStats bct;
  util::OnlineStats bst;
  std::vector<double> bst_samples;
  std::vector<EvalPoint> curve;
  std::vector<double> epoch_losses;

  // ---- opaque sub-states ----
  std::vector<std::uint8_t> network_state;  ///< sim::Network::save_state
  std::vector<WorkerCheckpoint> workers;
  std::vector<std::uint8_t> sync_state;     ///< SyncModel::save_state

  void serialize(util::serde::Writer& w) const;
  [[nodiscard]] static RunCheckpoint deserialize(util::serde::Reader& r);

  /// Write/read the standard serde envelope (magic "OSPRUN01").
  void save(const std::string& path) const;
  [[nodiscard]] static RunCheckpoint load(const std::string& path);
};

}  // namespace osp::runtime
