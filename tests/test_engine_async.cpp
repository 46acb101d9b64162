// Async worker-math pipeline suite.
//
// The headline guarantee under test: overlapping workers' real FP+BP on
// the thread pool (runtime/worker_math.hpp) changes *wall-clock only*.
// Every RunResult field and every final global parameter is bit-identical
//   - across OSP_NUM_THREADS (pools of 1, 2, and 8 threads),
//   - between the async pipeline and the serial reference path,
//   - under fault injection (crashes cancel in-flight jobs) and across a
//     checkpoint/resume boundary — even when the halted and resumed runs
//     execute under *different* thread counts.
// A stress scenario combines checkpoint parking and crash/restart cycles
// so jobs are abandoned mid-flight while the drain barrier is active.
// Evaluation runs on the pool too (batch ranges over a parameter snapshot,
// recorded at the next join point), so the curve is held to the same
// contract with evals overlapping in-flight math and checkpoints.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/osp_sync.hpp"
#include "data/dataset.hpp"
#include "models/zoo.hpp"
#include "runtime/engine.hpp"
#include "sync/bsp.hpp"
#include "sync/kv_bsp.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace osp {
namespace {

using SyncFactory = std::function<std::unique_ptr<runtime::SyncModel>()>;

runtime::EngineConfig golden_config() {
  runtime::EngineConfig cfg;
  cfg.num_workers = 4;
  cfg.max_epochs = 3;  // tiny_mlp: 8 batches/epoch/worker -> 24 iterations
  cfg.seed = 42;
  cfg.straggler_jitter = 0.1;
  return cfg;
}

/// Frequent evals over 7 batches (tiny_mlp evaluates 16-example batches):
/// a stride of three worker iterations' samples keeps an eval in flight
/// beside the math jobs almost all the time, and 7 batches split unevenly
/// over a 2-thread pool and into fewer ranges than an 8-thread pool has
/// threads.
runtime::EngineConfig eval_config() {
  runtime::EngineConfig cfg = golden_config();
  cfg.eval_every_samples = 48;
  cfg.eval_max_examples = 7 * 16;
  return cfg;
}

SyncFactory bsp_factory() {
  return [] { return std::make_unique<sync::BspSync>(); };
}

SyncFactory osp_factory() {
  return [] {
    // A fixed ICS budget keeps overlapped ICS rounds in flight, so the
    // completion events interleave with compute completions — the
    // adversarial case for event-order side effects.
    core::OspOptions opt;
    opt.fixed_budget_fraction = 0.5;
    return std::make_unique<core::OspSync>(opt);
  };
}

SyncFactory compressed_ef_factory() {
  return [] {
    return std::make_unique<sync::KvBspSync>(
        sync::compressed_bsp(kv::CompressionMode::TopK, 0.25, /*seed=*/99,
                             /*error_feedback=*/true));
  };
}

struct RunOutput {
  runtime::RunResult result;
  std::vector<float> params;
};

/// One full run under a pool of exactly `threads` threads. The pool is
/// declared before the engine: the engine pins ThreadPool::global() at
/// construction, so it must not outlive the override.
RunOutput run_with_threads(const SyncFactory& make,
                           const runtime::EngineConfig& cfg,
                           std::size_t threads) {
  util::ThreadPool pool(threads);
  util::ThreadPool::ScopedGlobal guard(pool);
  const runtime::WorkloadSpec spec = models::tiny_mlp();
  auto sync = make();
  runtime::Engine engine(spec, cfg, *sync);
  RunOutput out;
  out.result = engine.run();
  const auto params = engine.global_params();
  out.params.assign(params.begin(), params.end());
  return out;
}

/// Every RunResult field must match exactly — doubles included: the
/// pipeline is bit-identical, not approximately equal.
void expect_same_result(const runtime::RunResult& a,
                        const runtime::RunResult& c) {
  EXPECT_EQ(a.sync_name, c.sync_name);
  EXPECT_EQ(a.workload_name, c.workload_name);
  EXPECT_EQ(a.total_time_s, c.total_time_s);
  EXPECT_EQ(a.total_samples, c.total_samples);
  EXPECT_EQ(a.throughput, c.throughput);
  EXPECT_EQ(a.best_metric, c.best_metric);
  EXPECT_EQ(a.final_loss, c.final_loss);
  EXPECT_EQ(a.mean_bct_s, c.mean_bct_s);
  EXPECT_EQ(a.mean_bst_s, c.mean_bst_s);
  EXPECT_EQ(a.steady_bst_s, c.steady_bst_s);
  EXPECT_EQ(a.p99_bst_s, c.p99_bst_s);
  EXPECT_EQ(a.steady_throughput, c.steady_throughput);
  EXPECT_EQ(a.iters_to_target.has_value(), c.iters_to_target.has_value());
  if (a.iters_to_target && c.iters_to_target) {
    EXPECT_EQ(*a.iters_to_target, *c.iters_to_target);
  }
  EXPECT_EQ(a.time_to_target_s.has_value(), c.time_to_target_s.has_value());
  if (a.time_to_target_s && c.time_to_target_s) {
    EXPECT_EQ(*a.time_to_target_s, *c.time_to_target_s);
  }
  ASSERT_EQ(a.curve.size(), c.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].time_s, c.curve[i].time_s);
    EXPECT_EQ(a.curve[i].samples, c.curve[i].samples);
    EXPECT_EQ(a.curve[i].metric, c.curve[i].metric);
    EXPECT_EQ(a.curve[i].loss, c.curve[i].loss);
  }
  EXPECT_EQ(a.epoch_losses, c.epoch_losses);
  EXPECT_EQ(a.faults.worker_crashes, c.faults.worker_crashes);
  EXPECT_EQ(a.faults.worker_restarts, c.faults.worker_restarts);
  EXPECT_EQ(a.faults.worker_pauses, c.faults.worker_pauses);
  EXPECT_EQ(a.faults.flows_cancelled, c.faults.flows_cancelled);
  EXPECT_EQ(a.faults.messages_dropped, c.faults.messages_dropped);
  EXPECT_EQ(a.faults.messages_delayed, c.faults.messages_delayed);
  EXPECT_EQ(a.faults.timed_out_rounds, c.faults.timed_out_rounds);
  EXPECT_EQ(a.faults.ics_rounds_abandoned, c.faults.ics_rounds_abandoned);
  EXPECT_EQ(a.faults.catch_up_pulls, c.faults.catch_up_pulls);
  EXPECT_EQ(a.faults.worker_downtime_s, c.faults.worker_downtime_s);
  EXPECT_EQ(a.checkpoints_taken, c.checkpoints_taken);
  EXPECT_EQ(a.halted_at_checkpoint, c.halted_at_checkpoint);
}

/// Run the same (sync, config) under 1, 2, and 8 pool threads; every run
/// must be bitwise identical to the 1-thread reference.
void expect_thread_count_invariant(const SyncFactory& make,
                                   const runtime::EngineConfig& cfg,
                                   const std::string& tag) {
  const RunOutput ref = run_with_threads(make, cfg, 1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const RunOutput got = run_with_threads(make, cfg, threads);
    SCOPED_TRACE(tag + " @ " + std::to_string(threads) + " threads");
    expect_same_result(ref.result, got.result);
    ASSERT_EQ(ref.params.size(), got.params.size());
    EXPECT_EQ(ref.params, got.params) << tag << ": params diverged";
  }
}

// ---- plain runs ----

TEST(AsyncMathBitIdentity, Bsp) {
  expect_thread_count_invariant(bsp_factory(), golden_config(), "bsp");
}

TEST(AsyncMathBitIdentity, OspFixedBudget) {
  expect_thread_count_invariant(osp_factory(), golden_config(), "osp");
}

TEST(AsyncMathBitIdentity, CompressedBspWithErrorFeedback) {
  expect_thread_count_invariant(compressed_ef_factory(), golden_config(),
                                "compressed_ef");
}

// ---- evals on the pool, overlapping in-flight math ----

TEST(AsyncMathBitIdentity, FrequentEvals) {
  const RunOutput probe = run_with_threads(osp_factory(), eval_config(), 1);
  EXPECT_GT(probe.result.curve.size(), 20u);  // the evals really ran
  expect_thread_count_invariant(osp_factory(), eval_config(), "osp_eval");
  expect_thread_count_invariant(bsp_factory(), eval_config(), "bsp_eval");
}

// ---- faulted runs: crashes cancel in-flight jobs ----

runtime::EngineConfig faulted_config() {
  runtime::EngineConfig cfg = golden_config();
  // Worker 1 crashes mid-iteration (abandoning its in-flight math job) and
  // restarts; worker 2's compute gets stretched by a pause.
  cfg.faults.crash_worker(0.5, 1, 2.0).pause_worker(1.0, 2, 1.5);
  return cfg;
}

TEST(AsyncMathBitIdentity, BspFaulted) {
  expect_thread_count_invariant(bsp_factory(), faulted_config(),
                                "bsp_faulted");
}

TEST(AsyncMathBitIdentity, OspFaulted) {
  expect_thread_count_invariant(osp_factory(), faulted_config(),
                                "osp_faulted");
}

// ---- checkpoint/resume across *different* thread counts ----

TEST(AsyncMathBitIdentity, ResumeAcrossThreadCounts) {
  // A: uninterrupted run under 8 threads. B: identical config but halts at
  // the first checkpoint, under 2 threads. C: resumes B's file under 1
  // thread. A ≡ C proves the checkpoint file carries no trace of the
  // execution schedule — the remainder of a run is bit-identical no matter
  // which thread count produced the snapshot or consumes it. Under
  // eval_config the eval stride (3 worker iterations' samples) is below the
  // checkpoint cadence (5 iterations per worker), so every drain fires with
  // an eval still on the pool, which take_checkpoint must land first.
  const std::string path = ::testing::TempDir() + "osp_async_resume.bin";
  for (const bool evals : {false, true}) {
    SCOPED_TRACE(evals ? "frequent evals" : "default evals");
    runtime::EngineConfig cfg = evals ? eval_config() : golden_config();
    cfg.checkpoint.every_iters = 5;
    const RunOutput a = run_with_threads(osp_factory(), cfg, 8);
    EXPECT_EQ(a.result.checkpoints_taken, 4u);

    runtime::EngineConfig cfg_b = cfg;
    cfg_b.checkpoint.path = path;
    cfg_b.checkpoint.halt_after_checkpoint = true;
    const RunOutput b = run_with_threads(osp_factory(), cfg_b, 2);
    ASSERT_TRUE(b.result.halted_at_checkpoint);

    runtime::EngineConfig cfg_c = cfg;
    cfg_c.checkpoint.resume_from = path;
    const RunOutput c = run_with_threads(osp_factory(), cfg_c, 1);

    expect_same_result(a.result, c.result);
    ASSERT_EQ(a.params.size(), c.params.size());
    EXPECT_EQ(a.params, c.params) << "resumed params diverged";
    std::remove(path.c_str());
  }
}

// ---- async vs. serial reference path ----

TEST(AsyncMathBitIdentity, AsyncMatchesSerialReference) {
  for (const bool evals : {false, true}) {
    SCOPED_TRACE(evals ? "frequent evals" : "default evals");
    const runtime::EngineConfig cfg = evals ? eval_config() : golden_config();
    runtime::EngineConfig serial_cfg = cfg;
    serial_cfg.async_worker_math = false;
    const RunOutput serial = run_with_threads(osp_factory(), serial_cfg, 4);
    const RunOutput async = run_with_threads(osp_factory(), cfg, 4);
    expect_same_result(serial.result, async.result);
    EXPECT_EQ(serial.params, async.params);
  }
}

// ---- stress: parking + crashes with jobs in flight ----

TEST(AsyncMathStress, ParkedAndCrashedWorkersWithInFlightJobs) {
  // Eight workers, a checkpoint drain every 3 iterations (so workers park
  // with neighbours' jobs still in flight), two crash/restart cycles, one
  // permanent crash, and overlapping pauses — under OSP with live ICS
  // rounds. The 8-thread run must match the 1-thread reference bit for
  // bit, and every abandoned job must be reclaimed without touching
  // engine state (verified implicitly: any stray side effect changes
  // RunResult; any leaked job trips ASan/TSan in the sanitizer lanes).
  runtime::EngineConfig cfg;
  cfg.num_workers = 8;
  cfg.max_epochs = 3;  // tiny_mlp @ 8 workers: 4 batches/epoch/worker
  cfg.seed = 1234;
  cfg.straggler_jitter = 0.2;
  cfg.checkpoint.every_iters = 3;
  cfg.faults.crash_worker(0.4, 1, 1.0)
      .crash_worker(0.9, 3, 2.0)
      .crash_worker(1.3, 5, -1.0)  // never restarts
      .pause_worker(0.6, 2, 1.0)
      .pause_worker(1.1, 6, 0.8);
  expect_thread_count_invariant(osp_factory(), cfg, "stress");
  expect_thread_count_invariant(bsp_factory(), cfg, "stress_bsp");
}

// ---- pipeline observability ----

TEST(AsyncMathPipeline, SerialFallbackOnSingleThreadPool) {
  // A 1-thread pool cannot overlap anything; the engine falls back to the
  // serial path (and builds exactly one replica once it runs).
  util::ThreadPool pool(1);
  util::ThreadPool::ScopedGlobal guard(pool);
  const runtime::WorkloadSpec spec = models::tiny_mlp();
  sync::BspSync sync;
  runtime::EngineConfig cfg = golden_config();
  cfg.max_epochs = 1;
  runtime::Engine engine(spec, cfg, sync);
  EXPECT_FALSE(engine.async_math());
  (void)engine.run();
  EXPECT_EQ(engine.math_replicas(), 1u);
}

TEST(AsyncMathPipeline, ReplicaPoolBoundedByThreads) {
  // Eval ranges share the replicas with the math jobs; the bound holds
  // with both in flight.
  util::ThreadPool pool(4);
  util::ThreadPool::ScopedGlobal guard(pool);
  const runtime::WorkloadSpec spec = models::tiny_mlp();
  sync::BspSync sync;
  runtime::EngineConfig cfg = eval_config();
  cfg.max_epochs = 1;
  runtime::Engine engine(spec, cfg, sync);
  EXPECT_TRUE(engine.async_math());
  (void)engine.run();
  EXPECT_GE(engine.math_replicas(), 1u);
  EXPECT_LE(engine.math_replicas(), pool.size() + 1);
}

TEST(AsyncMathPipeline, ConfigFlagDisablesOverlap) {
  util::ThreadPool pool(4);
  util::ThreadPool::ScopedGlobal guard(pool);
  const runtime::WorkloadSpec spec = models::tiny_mlp();
  sync::BspSync sync;
  runtime::EngineConfig cfg = golden_config();
  cfg.async_worker_math = false;
  runtime::Engine engine(spec, cfg, sync);
  EXPECT_FALSE(engine.async_math());
}

/// Eval set whose examples past `fail_from` cannot be materialized.
class FailingEvalSet : public data::Dataset {
 public:
  FailingEvalSet(std::shared_ptr<const data::Dataset> inner,
                 std::size_t fail_from)
      : inner_(std::move(inner)), fail_from_(fail_from) {}

  [[nodiscard]] std::size_t size() const override { return inner_->size(); }

  [[nodiscard]] data::Batch make_batch(
      std::span<const std::size_t> indices) const override {
    for (const std::size_t i : indices) {
      OSP_CHECK(i < fail_from_, "eval example unavailable");
    }
    return inner_->make_batch(indices);
  }

 private:
  std::shared_ptr<const data::Dataset> inner_;
  std::size_t fail_from_;
};

TEST(AsyncMathPipeline, EvalFailureThrowsFromRun) {
  // An OSP_CHECK inside an eval range on a pool thread must surface as an
  // exception from Engine::run (and the engine must still tear down
  // cleanly), not terminate the process.
  for (const bool async : {true, false}) {
    SCOPED_TRACE(async ? "async" : "serial");
    util::ThreadPool pool(4);
    util::ThreadPool::ScopedGlobal guard(pool);
    runtime::WorkloadSpec spec = models::tiny_mlp();
    spec.eval = std::make_shared<FailingEvalSet>(spec.eval, 5 * 16);
    sync::BspSync sync;
    runtime::EngineConfig cfg = eval_config();
    cfg.async_worker_math = async;
    runtime::Engine engine(spec, cfg, sync);
    EXPECT_THROW((void)engine.run(), util::CheckError);
  }
}

}  // namespace
}  // namespace osp
