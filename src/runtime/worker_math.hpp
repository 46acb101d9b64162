// The batch-parallel worker-math pipeline: per-worker FP+BP as pure,
// cancelable jobs over a pool of model replicas.
//
// At begin_compute(w) every input of worker w's real math is already
// determined — the parameter snapshot (gradients are computed against the
// params as of compute start, §4.2), the epoch, and the batch index — so
// the engine packages them into a MathJob and enqueues it on the thread
// pool immediately. The job is *pure*: it reads only its own input copies
// plus immutable shared state (the dataset is generative and const, the
// loader's order cache is internally locked), and writes only its own
// output fields. Multiple workers' math therefore overlaps in wall-clock
// while the engine's virtual-time event loop stays single-threaded: the
// compute-completion event joins the job and applies every side effect
// (metrics, samples_processed_, eval triggers, sync callbacks, trace
// spans) in exact event order. RunResult is bit-identical to the serial
// path at any OSP_NUM_THREADS because the tensor kernels are bit-identical
// across thread counts and nothing observable happens off the event loop.
//
// Cancellation contract: a crash (or engine teardown) flips `cancelled`
// and abandons the job — if it has not started, the claim CAS makes it a
// no-op; if it is mid-flight it finishes writing its own buffers, which
// nobody reads. The engine joins abandoned jobs before destroying the
// replicas and loaders they reference.
//
// Evaluation of the global model is a pure job too (EvalJob): no sync
// model reads an eval result, so the engine evaluates a snapshot of the
// global parameters on the replicas, split by batch ranges, and records
// the point when it joins the job (see Engine::evaluate_now).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "data/loader.hpp"
#include "nn/registry.hpp"
#include "nn/sequential.hpp"
#include "util/thread_pool.hpp"

namespace osp::runtime {

/// One worker iteration's real FP+BP. Inputs are frozen at submission;
/// outputs are written by whichever thread executes the job and read by
/// the engine strictly after joining `handle`.
struct MathJob {
  // ---- inputs (immutable once submitted) ----
  std::size_t worker = 0;
  std::size_t epoch = 0;
  std::size_t batch_index = 0;
  bool is_qa = false;
  /// Parameter snapshot the gradient is computed against.
  std::vector<float> params;
  /// The owning worker's loader (outlives the job; thread-safe batch()).
  const data::ShardLoader* loader = nullptr;

  // ---- outputs (valid after handle.join()) ----
  std::vector<float> grad;
  double loss = 0.0;
  std::size_t samples = 0;

  // ---- control ----
  /// Set by the engine on crash/teardown; an unstarted job then skips its
  /// math entirely (samples stays 0).
  std::atomic<bool> cancelled{false};
  util::TaskHandle handle;
};

/// One evaluation of the global model over eval batches [0, n): batch i is
/// examples [i·batch_size, (i+1)·batch_size) of the eval set. Inputs are
/// frozen at the trigger; each batch's result goes into its own slot, so
/// ranges of batches can run on different threads, and the engine sums the
/// slots in batch order after joining every handle.
struct EvalJob {
  // ---- inputs (immutable once submitted) ----
  const data::Dataset* dataset = nullptr;
  std::size_t batch_size = 0;
  bool is_qa = false;
  /// Snapshot of the global parameters. Empty on the serial path, which
  /// evaluates the live vector in place.
  std::vector<float> params;
  /// Virtual time and samples processed at the trigger (the curve point's
  /// stamps).
  double time_s = 0.0;
  double samples = 0.0;

  // ---- outputs: one slot per batch (valid after every handle joined) ----
  std::vector<double> metric;
  std::vector<double> loss;

  // ---- control: one handle per batch range (none on the serial path) ----
  std::vector<util::TaskHandle> handles;
};

/// Evaluate batches [begin, end) of `job` on `model` (flat view `flat`)
/// with parameters `params`: scatter once, then per batch make_batch,
/// forward(train=false), metric and loss into that batch's slots.
void evaluate_batches(nn::Sequential& model, nn::FlatModel& flat,
                      std::span<const float> params, EvalJob& job,
                      std::size_t begin, std::size_t end);

/// A pool of (Sequential, FlatModel) replicas for concurrent FP+BP.
/// Replicas are built lazily on first demand, so a serial run pays for
/// exactly one and an N-thread run for at most N+1 (the +1 covers a
/// stolen join executing on the event-loop thread while every pool worker
/// holds one). All replicas come from the same deterministic builder, so
/// which replica executes a job never affects its outputs.
class ReplicaPool {
 public:
  ReplicaPool(std::function<nn::Sequential(std::uint64_t)> build,
              std::uint64_t seed);
  ~ReplicaPool();

  ReplicaPool(const ReplicaPool&) = delete;
  ReplicaPool& operator=(const ReplicaPool&) = delete;

  /// Execute `job`'s FP+BP on a free replica: materialize the batch,
  /// scatter the snapshot, forward/backward, gather the gradient. Honors
  /// job.cancelled (checked once, up front).
  void execute(MathJob& job);

  /// Evaluate batches [begin, end) of `job` against its parameter snapshot
  /// on a free replica.
  void evaluate(EvalJob& job, std::size_t begin, std::size_t end);

  /// Replicas built so far (observability: 1 on the serial path, up to
  /// pool-threads + 1 under full fan-out).
  [[nodiscard]] std::size_t replicas_built() const;

 private:
  struct Replica {
    nn::Sequential model;
    std::unique_ptr<nn::FlatModel> flat;
  };

  [[nodiscard]] std::unique_ptr<Replica> acquire();
  void release(std::unique_ptr<Replica> r);

  std::function<nn::Sequential(std::uint64_t)> build_;
  std::uint64_t seed_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Replica>> free_;
  std::size_t built_ = 0;
};

}  // namespace osp::runtime
