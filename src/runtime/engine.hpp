// The virtual-time training engine.
//
// Couples real numerics with simulated time: every worker's gradients are
// computed for real on the proxy model (so accuracy trajectories genuinely
// reflect staleness and correction effects), while compute and
// communication *durations* come from the calibrated compute model and the
// flow-level network simulator. One Engine drives one (workload, sync
// model, cluster) experiment to completion and returns a RunResult.
//
// Lifecycle per worker w:
//   begin_compute(w)              [engine]
//     … virtual compute time …
//   on_compute_done(w):           [engine]  real FP+BP, gradient gathered
//   sync->on_gradient_ready(w)    [sync model] virtual-time communication,
//                                  parameter updates via engine accessors
//   eng.finish_sync(w)            [sync model] records BST,
//                                  engine starts the next iteration
//
// Epoch bookkeeping: when every worker has finished epoch e the engine
// reports the mean training loss to the sync model (Algorithm 1's input)
// and the learning-rate schedule advances on the slowest worker's epoch.
//
// Fault injection: EngineConfig::faults installs a deterministic
// FaultSchedule (sim/faults.hpp) into the simulator at run start. The
// engine executes worker events — a paused worker's in-flight compute is
// stretched by the pause window; a crashed worker's in-flight compute and
// worker-owned network flows are cancelled, the sync model is notified,
// and on restart the worker re-pulls the global model before computing
// again. Link and message events are forwarded to the Network. Every
// message a sync model sends is a worker_transfer(): it belongs to a
// worker, and the engine cancels it when that worker crashes.
// RunResult::faults reports the accounting.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/registry.hpp"
#include "data/loader.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/metrics.hpp"
#include "runtime/trace.hpp"
#include "runtime/sync_model.hpp"
#include "runtime/worker_math.hpp"
#include "runtime/workload.hpp"
#include "sim/cluster.hpp"
#include "sim/faults.hpp"
#include "sim/simulator.hpp"

namespace osp::runtime {

struct EngineConfig {
  std::size_t num_workers = 8;
  std::size_t max_epochs = 10;
  /// Evaluate the global model every this many processed samples
  /// (0 = once per dataset-size samples).
  std::size_t eval_every_samples = 0;
  /// Cap on eval examples per evaluation (0 = whole eval set).
  std::size_t eval_max_examples = 0;
  double momentum = 0.0;
  nn::StepLrSchedule lr_schedule = nn::StepLrSchedule::paper_default();
  std::uint64_t seed = 1;
  sim::ClusterConfig cluster;
  /// One-sided exponential compute jitter coefficient (stragglers).
  double straggler_jitter = 0.0;
  /// Safety limit on virtual time (seconds); 0 disables.
  double max_virtual_time_s = 0.0;
  /// Record per-worker compute/sync spans, network flow spans, and counter
  /// tracks (see runtime/trace.hpp).
  bool record_trace = false;
  /// Record per-round SyncTelemetry into RunResult::rounds (see
  /// runtime/telemetry.hpp). Independent of record_trace.
  bool record_telemetry = false;
  /// §6.2: scale each worker's batch size by its speed factor so
  /// heterogeneous workers finish compute in near-equal time; aggregation
  /// then weights each gradient by its sample share (§2.1.1).
  bool balance_batch_to_speed = false;
  /// Overlap workers' real FP+BP in wall-clock: each iteration's math is
  /// enqueued on the thread pool at compute start and joined at the
  /// virtual-time completion event (see runtime/worker_math.hpp); evals of
  /// the global model run on the pool too, joined at the next eval,
  /// checkpoint or run end. Results are bit-identical either way and at
  /// any OSP_NUM_THREADS; disable to get the serial reference path.
  bool async_worker_math = true;
  /// Deterministic fault scenario executed during the run (empty = none).
  sim::FaultSchedule faults;
  /// Periodic run-level checkpointing / resume (see runtime/checkpoint.hpp;
  /// default-disabled: every_iters == 0 and resume_from empty leave every
  /// code path of a plain run untouched).
  CheckpointPolicy checkpoint;
};

class Engine {
 public:
  Engine(const WorkloadSpec& spec, const EngineConfig& config,
         SyncModel& sync);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Run the experiment to completion; single use.
  [[nodiscard]] RunResult run();

  // ---- accessors for sync models ----
  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] sim::Cluster& cluster() { return *cluster_; }
  [[nodiscard]] std::size_t num_workers() const {
    return config_.num_workers;
  }
  [[nodiscard]] const WorkloadSpec& spec() const { return *spec_; }
  [[nodiscard]] const EngineConfig& config() const { return config_; }

  /// Layer blocks of the (proxy) model; wire sizes are scaled to the real
  /// model via block_bytes().
  [[nodiscard]] const std::vector<nn::LayerBlockInfo>& blocks() const;
  [[nodiscard]] std::size_t num_blocks() const { return blocks().size(); }
  /// Wire bytes of block `i`, scaled so the whole model weighs
  /// spec().real_param_bytes.
  [[nodiscard]] double block_bytes(std::size_t i) const;
  /// All blocks' wire bytes (same scaling).
  [[nodiscard]] const std::vector<double>& all_block_bytes() const {
    return block_bytes_;
  }
  [[nodiscard]] double model_bytes() const {
    return spec_->real_param_bytes;
  }

  /// Jitter-free per-iteration compute time T_C (Eq. 5's input).
  [[nodiscard]] double base_compute_time() const;

  /// Virtual seconds the PS spends touching `bytes` of gradient/parameter
  /// data `passes` times (aggregation, optimizer application, PGP). 0 when
  /// the cluster config disables PS costing.
  [[nodiscard]] double ps_apply_delay(double bytes,
                                      double passes = 1.0) const;

  /// Run `done` after PS `ps`'s single-threaded update loop has spent
  /// `seconds` of work. Jobs are served FIFO per PS: concurrent submissions
  /// queue behind each other, which is what makes N independent async
  /// updates per round more expensive at the PS than one aggregated
  /// OSP/BSP step. With multiple PSes (§6.1) each shard has its own queue.
  /// A PS crash (FaultKind::kPsCrash) drops the queue: jobs submitted
  /// before the crash never run, even if the host later restarts.
  void ps_submit(double seconds, std::function<void()> done,
                 std::size_t ps = 0);

  // ---- worker state ----
  [[nodiscard]] std::span<const float> worker_gradient(std::size_t w) const;
  [[nodiscard]] std::span<float> worker_params(std::size_t w);
  [[nodiscard]] std::size_t worker_iteration(std::size_t w) const;
  /// Lowest completed-iteration count over the alive workers: a crashed
  /// worker cannot progress, so staleness bounds must not wait on it.
  /// SIZE_MAX when every worker is crashed.
  [[nodiscard]] std::size_t min_worker_iteration() const;
  [[nodiscard]] std::size_t batches_per_epoch() const;
  /// Worker w's batch size (== spec().batch_size unless
  /// balance_batch_to_speed rescaled it).
  [[nodiscard]] std::size_t worker_batch(std::size_t w) const;
  /// Worker w's aggregation weight: its batch share of the cluster's
  /// per-round samples (§2.1.1's dataset-ratio weighting). Uniform 1/N
  /// for homogeneous batches.
  [[nodiscard]] double worker_weight(std::size_t w) const;
  /// Extra per-iteration compute charged to a worker (co-located PS GIB
  /// computation, §4.4). Fraction of the batch compute time.
  void set_worker_compute_overhead(std::size_t w, double fraction);

  // ---- parameter server ----
  [[nodiscard]] std::span<float> global_params() { return global_params_; }
  [[nodiscard]] std::span<const float> global_params() const {
    return global_params_;
  }
  /// SGD step on the full global vector with the current scheduled LR.
  /// `scale` multiplies the gradient — async schemes (ASP/SSP/R²SP) apply
  /// each worker's gradient scaled by 1/N so the per-sample step size
  /// matches BSP's mean aggregation.
  void apply_global_step(std::span<const float> grad, double scale = 1.0);
  /// SGD step restricted to blocks whose GIB importance equals
  /// `important_set` (OSP's two-stage updates). `grad` is full-length.
  void apply_global_step_blocks(std::span<const float> grad,
                                const std::vector<bool>& block_mask);
  [[nodiscard]] double current_lr() const;

  /// Called by the sync model when worker `w` may start its next iteration.
  /// Ignored for a crashed worker and for one whose restart pull or
  /// checkpoint read is still in flight (the restart path owns its
  /// lifecycle until its state is back). Throws util::CheckError if `w` is
  /// computing: a model released it twice, e.g. with a callback left over
  /// from before a crash.
  void finish_sync(std::size_t w);

  // ---- fault injection ----
  /// False while worker `w` is crashed: from the crash event to its
  /// restart. The restart's pull (or checkpoint read) window counts as
  /// alive, though finish_sync ignores the worker until it lands.
  [[nodiscard]] bool worker_alive(std::size_t w) const;
  [[nodiscard]] std::size_t num_alive() const;
  /// True once worker `w` has finished all its epochs (it will not push
  /// again; barriers must not wait for it).
  [[nodiscard]] bool worker_done(std::size_t w) const {
    return workers_.at(w).done;
  }
  /// True while worker `w` has reached the pending checkpoint cut: it is
  /// held there, or parks as soon as it computes again (one restarting
  /// there), so it pushes again only after the snapshot, which waits for
  /// every open round.
  [[nodiscard]] bool worker_parked(std::size_t w) const {
    return should_park(w);
  }
  /// Snapshots taken so far, a resumed run's included. A barrier fences
  /// the timer armed before a snapshot with it.
  [[nodiscard]] std::uint64_t checkpoints_taken() const {
    return checkpoints_taken_;
  }

  /// Move `bytes` along `route` on behalf of worker `owner` and call `done`
  /// on arrival; the one path every sync message takes, in either
  /// direction. The flow is registered to `owner` and cancelled if the
  /// owner crashes (the completion callback then never fires, not even
  /// after a restart). No-op when the owner is already crashed. An empty
  /// route is a co-located-PS loopback, completed through the event queue.
  /// A message an injection window drops is never registered; the call
  /// then returns true, so a sender that must get through can re-send.
  bool worker_transfer(std::size_t owner, std::vector<sim::LinkId> route,
                       double bytes, std::function<void()> done);

  [[nodiscard]] std::size_t num_ps_crashed() const { return ps_crashed_count_; }

  /// Fault-accounting hooks for sync models.
  void record_round_timeout() { ++fault_stats_.timed_out_rounds; }
  void record_ics_abandoned() { ++fault_stats_.ics_rounds_abandoned; }
  void record_catch_up_pull() { ++fault_stats_.catch_up_pulls; }
  /// A key range was repointed at a replica after a PS fault;
  /// `catchup_bytes` is what the version-predicate catch-up shipped.
  void record_ps_promotion(double catchup_bytes) {
    ++fault_stats_.ps_promotions;
    fault_stats_.replica_catchup_bytes += catchup_bytes;
  }
  [[nodiscard]] const sim::FaultStats& fault_stats() const {
    return fault_stats_;
  }

  /// True once the run's stop condition has been reached (workers finished
  /// their epochs); sync models can early-out housekeeping.
  [[nodiscard]] bool stopping() const { return stopping_; }

  /// Execution trace (empty unless config().record_trace).
  [[nodiscard]] const TraceRecorder& trace() const { return trace_; }
  /// True when the run records a trace — sync models gate span emission
  /// (OSP's ICS side-track spans) on this.
  [[nodiscard]] bool tracing() const { return config_.record_trace; }
  /// Mutable trace recorder for sync-model-emitted spans. Only meaningful
  /// while tracing() is true.
  [[nodiscard]] TraceRecorder& trace_mutable() { return trace_; }

  // ---- sync telemetry ----
  /// The record for sync round `round`, creating it if absent (most models
  /// only ever append; OSP's late ICS corrections amend earlier rounds).
  /// A freshly created record gets close_time_s = now and wire_bytes = the
  /// network payload delivered since the previous record was created. When
  /// record_telemetry is off this returns a reusable scratch record, so
  /// callers never need their own gating.
  [[nodiscard]] SyncTelemetry& telemetry_round(std::uint64_t round);
  [[nodiscard]] const std::vector<SyncTelemetry>& telemetry() const {
    return telemetry_;
  }

  /// True when this run overlaps worker math and evals on the thread pool
  /// (the config flag, off on a 1-thread pool); the serial path otherwise.
  [[nodiscard]] bool async_math() const { return async_math_; }
  /// Model replicas the pool has materialized for worker math and, on the
  /// async path, eval batches (1 on the serial path; up to the pool's
  /// thread count under fan-out). Observability/tests.
  [[nodiscard]] std::size_t math_replicas() const {
    return replicas_->replicas_built();
  }

 private:
  struct WorkerState {
    std::vector<float> params;      // flat local parameters (live)
    std::vector<float> grad;        // flat last gradient
    std::unique_ptr<data::ShardLoader> loader;
    std::size_t batch_size = 0;
    util::Rng rng;                  // jitter stream
    std::size_t iteration = 0;      // completed iterations
    std::size_t epoch = 0;          // completed epochs
    double grad_ready_time = 0.0;
    double compute_begin_time = 0.0;
    double epoch_loss_sum = 0.0;
    std::size_t epoch_loss_count = 0;
    double compute_overhead = 0.0;
    bool done = false;
    // Checkpoint drain barrier: the worker reached the checkpoint
    // iteration and is held before its next compute until the snapshot.
    bool parked = false;
    double park_begin_time = 0.0;   // when parked went true (trace spans)
    // Fault-injection state.
    bool crashed = false;
    bool restoring = false;         // restart pull / checkpoint read pending
    std::uint64_t lives = 0;        // crashes so far; voids older loopbacks
    double crashed_at = 0.0;
    double pause_until = 0.0;       // compute stalls until this instant
    double restart_at = -1.0;       // pending restart event time (< 0: none)
    std::uint64_t compute_epoch = 0;  // invalidates in-flight completions
    bool compute_pending = false;
    double compute_end_time = 0.0;
    double pending_charge = 0.0;    // BCT to record at completion
    std::vector<sim::FlowId> flows;  // in-flight worker-owned transfers
    // In-flight math job for the current iteration: snapshot of params as
    // of compute start (gradients are computed against these, so ICS
    // corrections landing mid-compute only affect the *next* iteration,
    // §4.2), submitted at begin_compute, joined at the completion event.
    std::shared_ptr<MathJob> job;
  };

  /// Complete `done` after `delay` virtual seconds of node-local activity
  /// (co-located-PS loopback, checkpoint disk reads). Equivalent to
  /// sim().schedule but tracked, so the checkpoint drain barrier sees
  /// pending loopbacks and does not snapshot across them.
  void loopback_transfer(double delay, std::function<void()> done);
  /// Throws util::CheckError if `w` already has a math job: one started
  /// over it would be orphaned.
  void begin_compute(std::size_t w);
  void on_compute_done(std::size_t w, double charged_time);
  /// Abandon worker w's in-flight math job (crash): a queued job never
  /// runs; a running one finishes into buffers nobody reads.
  void cancel_math_job(std::size_t w);
  void schedule_compute_completion(std::size_t w, double end_time);
  void maybe_evaluate(bool force);
  /// Evaluate the global parameters as of now. Async path: snapshot them
  /// into an EvalJob queued in the background one task per batch, recorded
  /// at the next join_evals(). Serial path: evaluate in place and record at
  /// once.
  void evaluate_now();
  /// Join the in-flight evaluation, if any, and record its curve point.
  void join_evals();
  void complete_epoch(std::size_t w);
  /// Install the fault schedule. `resume_time >= 0` means we are resuming
  /// a checkpoint taken at that virtual time: already-executed events are
  /// filtered out and the injection RNG is restored from the checkpointed
  /// network state instead of being reseeded.
  void install_faults(double resume_time = -1.0);
  void apply_fault(const sim::FaultEvent& ev);
  void crash_worker(std::size_t w, double restart_after);
  void restart_worker(std::size_t w);
  /// The restarted worker's model pull; re-issued while drop windows eat it.
  void pull_restart_model(std::size_t w);
  void pause_worker(std::size_t w, double duration);
  void crash_ps(std::size_t ps, double restart_after);
  void restart_ps(std::size_t ps);

  // ---- checkpointing ----
  [[nodiscard]] bool should_park(std::size_t w) const;
  [[nodiscard]] bool all_parked() const;
  [[nodiscard]] bool quiescent() const;
  /// If a drain is pending and the cluster is fully parked + quiescent,
  /// take the checkpoint now. Returns true when a checkpoint was taken.
  bool maybe_checkpoint_now();
  void take_checkpoint();
  void release_parked();
  [[nodiscard]] RunCheckpoint make_checkpoint() const;
  void restore_checkpoint(const RunCheckpoint& ckpt);

  const WorkloadSpec* spec_;
  EngineConfig config_;
  SyncModel* sync_;

  sim::Simulator sim_;
  std::unique_ptr<sim::Cluster> cluster_;
  sim::ComputeModel compute_model_;

  // Block-layout authority for the sync-facing accessors (flat_), and the
  // serial path's eval model: evaluate_now scatters the global params into
  // it in place. Worker math and async evals run on replicas_ instead.
  nn::Sequential scratch_model_;
  std::unique_ptr<nn::FlatModel> flat_;
  // Replica pool, thread pool and task queue of the async worker-math
  // pipeline. The pool pointer is pinned at construction so a mid-run
  // ScopedGlobal swap cannot split submissions and joins across pools.
  std::unique_ptr<ReplicaPool> replicas_;
  util::ThreadPool* pool_ = nullptr;
  bool async_math_ = true;
  // Math jobs (foreground) and eval batches (background); async path only.
  // Reset first in ~Engine: its teardown waits for running jobs.
  std::unique_ptr<util::TaskQueue> tasks_;
  // The evaluation in flight on the pool (async path; at most one).
  std::shared_ptr<EvalJob> eval_job_;
  std::vector<double> block_bytes_;

  std::vector<float> global_params_;
  std::vector<float> scaled_grad_;  // scratch for scaled async updates
  std::unique_ptr<nn::SgdOptimizer> optimizer_;

  std::vector<WorkerState> workers_;
  MetricsRecorder metrics_;
  TraceRecorder trace_;
  // Sync telemetry (record_telemetry). The scratch record absorbs writes
  // while telemetry is disabled.
  std::vector<SyncTelemetry> telemetry_;
  SyncTelemetry telemetry_scratch_;
  double telemetry_bytes_mark_ = 0.0;
  // Flows currently on the wire, keyed by id (record_trace only): start
  // data held until the ended hook fires and the FlowSpan is emitted.
  struct PendingFlow {
    double begin_s = 0.0;
    std::string src;
    std::string dst;
    double bytes = 0.0;
  };
  std::map<sim::FlowId, PendingFlow> pending_flows_;
  sim::FaultStats fault_stats_;
  std::vector<double> ps_busy_until_;
  // PS-shard fault state. ps_epoch_ invalidates the serial queue: every
  // ps_submit captures the epoch at submission and its completion event
  // no-ops if the host crashed in between (the queue is lost with the
  // host, and does not come back at restart).
  std::vector<std::uint8_t> ps_crashed_;
  std::vector<double> ps_crashed_at_;
  std::vector<double> ps_restart_at_;   // pending restart time (< 0: none)
  std::vector<std::uint64_t> ps_epoch_;
  std::size_t ps_crashed_count_ = 0;
  // Live (non-crashed) workers, maintained on crash/restart so num_alive()
  // is O(1) — it is called per round in several hot paths.
  std::size_t alive_count_ = 0;

  double samples_processed_ = 0.0;
  double next_eval_at_samples_ = 0.0;
  std::size_t eval_stride_ = 0;
  // Epoch tracking: epoch_done_counts_[e] = workers that completed epoch e.
  std::vector<std::size_t> epoch_done_counts_;
  std::vector<double> epoch_loss_sums_;
  bool stopping_ = false;
  bool ran_ = false;

  // Checkpoint policy state. next_checkpoint_iter_ == 0 means the policy
  // is disabled and every checkpoint hook is a no-op.
  std::size_t next_checkpoint_iter_ = 0;
  bool drain_pending_ = false;     // waiting for park + quiescence
  bool halted_ = false;            // halt_after_checkpoint fired
  std::uint64_t checkpoints_taken_ = 0;
  std::shared_ptr<const RunCheckpoint> last_checkpoint_;
  std::size_t loopback_pending_ = 0;  // in-flight loopback_transfer events
};

}  // namespace osp::runtime
