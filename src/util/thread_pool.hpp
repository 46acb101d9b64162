// A fixed-size worker pool with an OpenMP-style parallel_for, plus
// TaskQueue: a producer-owned queue of coarse tasks served by a capped
// number of pool threads and by the producer's own joins.
//
// The tensor kernels (matmul, conv, the rank-2 helpers) and the vec_math
// aggregation kernels decompose their iteration space into chunks that the
// pool's workers claim off an atomic cursor (dynamic scheduling, so skewed
// loops balance). parallel_for is a template: the callable is invoked
// through a single type-erased function pointer held in a stack-allocated
// job record — no per-chunk std::function, no per-chunk heap allocation.
// The pool is created once and reused; tasks never allocate threads on the
// hot path.
//
// TaskQueue is the coarse-grained sibling (the engine's per-worker FP+BP
// jobs and eval batches). Each queue is served by at most `max_runners`
// pool tasks that pull from it until it is empty, and a join never just
// blocks while the queue holds work: it runs its own task if that is still
// queued, and otherwise the queue's other foreground tasks until its task
// is done. A join touches only its own queue, so two producers sharing a
// pool stay independent and no join can run a task that waits on its
// caller.
//
// Kernels inside a queued task run inline: a parallel_for called while the
// thread executes a TaskQueue task is one fn(0, n) call. Task-level
// parallelism already owns the cores there; fanning the kernel out would
// only queue helper chunks behind other tasks. Kernel results are
// bit-identical at any split (see parallel_for's determinism contract), so
// this affects wall-clock only.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace osp::util {

namespace detail {

/// Shared control block for one parallel_for call (one allocation per call
/// that actually splits; chunks themselves never allocate). Workers claim
/// chunk indices from `next` until exhausted; the caller participates and
/// then blocks until every *chunk* has completed. Helper tasks hold the
/// block by shared_ptr, so one that starts after the call returned simply
/// finds no chunks left and exits without touching the callable (which
/// lives on the caller's stack and is only dereferenced while executing a
/// claimed chunk). Waiting on chunk completion rather than helper exit is
/// what makes nested parallel_for deadlock-free: a caller inside a worker
/// never depends on queued-but-unstarted tasks, because it can drain all
/// remaining chunks itself.
struct ParallelForJob {
  const void* fn = nullptr;
  void (*invoke)(const void*, std::size_t, std::size_t) = nullptr;
  std::size_t n = 0;
  std::size_t chunk = 0;
  std::size_t num_chunks = 0;
  std::atomic<std::size_t> next{0};

  std::mutex mu;
  std::condition_variable done;
  std::size_t completed = 0;  // guarded by mu
};

struct QueuedTask;
struct TaskQueueState;

}  // namespace detail

/// A pushed task, as its producer holds it: join or cancel it through the
/// queue it was pushed to. An empty ticket joins as a no-op.
using TaskTicket = std::shared_ptr<detail::QueuedTask>;

class ThreadPool;

/// A producer-owned queue of coarse tasks. Tasks run on at most
/// `max_runners` pool tasks at once, plus the threads that join them.
/// Runners take foreground tasks first and a background task only when no
/// foreground task is queued. Destroying the queue drops every task still
/// queued and waits for the running ones; the pool must outlive it.
class TaskQueue {
 public:
  enum class Lane { kForeground, kBackground };

  TaskQueue(ThreadPool& pool, std::size_t max_runners);
  ~TaskQueue();

  TaskQueue(const TaskQueue&) = delete;
  TaskQueue& operator=(const TaskQueue&) = delete;

  /// Queue `fn` and return its ticket; starts a runner if fewer than
  /// max_runners serve the queue.
  TaskTicket push(std::function<void()> fn, Lane lane = Lane::kForeground);

  /// Return once `task` has run. If it is still queued the calling thread
  /// runs it; if another thread runs it, the caller runs this queue's other
  /// queued foreground tasks meanwhile and blocks only when there are none.
  /// Rethrows what the task threw, on every join.
  void join(const TaskTicket& task);

  /// Drop `task` if it is still queued: it will never run. Returns false if
  /// it has already started (it then finishes; nobody needs to join it).
  bool cancel(const TaskTicket& task);

  /// True once `task` has run or been dropped.
  [[nodiscard]] bool done(const TaskTicket& task) const;

 private:
  ThreadPool* pool_;
  std::shared_ptr<detail::TaskQueueState> state_;
};

class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means hardware_concurrency (min 1),
  /// overridable through the OSP_NUM_THREADS environment variable.
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; returns immediately. Use wait_idle() to join.
  void submit(std::function<void()> task);

  /// True while the calling thread executes a TaskQueue task (on a runner
  /// or in a join); parallel_for runs inline there.
  [[nodiscard]] static bool in_task();

  /// Block until every submitted task has finished.
  void wait_idle();

  /// Run fn(begin, end) over [0, n) in chunks claimed dynamically by the
  /// pool's workers and the calling thread. Blocks until all chunks
  /// complete. `grain` is the minimum chunk size; loops no larger than one
  /// grain run inline on the caller.
  ///
  /// Chunk *boundaries* depend on the pool size, so callers that need
  /// results independent of thread count must make each index's work
  /// independent (all tensor kernels do) or partition explicitly.
  template <typename Fn>
  void parallel_for(std::size_t n, Fn&& fn, std::size_t grain = 1024) {
    using F = std::remove_reference_t<Fn>;
    if (n == 0) return;
    grain = std::max<std::size_t>(grain, 1);
    if (n <= grain || size() <= 1 || in_task()) {
      fn(0, n);
      return;
    }
    auto job = std::make_shared<detail::ParallelForJob>();
    job->fn = static_cast<const void*>(&fn);
    job->invoke = [](const void* f, std::size_t begin, std::size_t end) {
      (*static_cast<const F*>(f))(begin, end);
    };
    job->n = n;
    // ~4 chunks per worker bounds the scheduling overhead while leaving
    // dynamic slack for skewed iterations.
    job->chunk = std::max(grain, n / (4 * size()) + 1);
    job->num_chunks = (n + job->chunk - 1) / job->chunk;
    run_job(job);
  }

  /// Process-wide default pool (lazily constructed; size from
  /// OSP_NUM_THREADS or hardware_concurrency). Tests can substitute a pool
  /// with ScopedGlobal.
  static ThreadPool& global();

  /// RAII override of the pool returned by global() — lets tests run the
  /// tensor kernels under specific thread counts in one process.
  class ScopedGlobal {
   public:
    explicit ScopedGlobal(ThreadPool& pool);
    ~ScopedGlobal();
    ScopedGlobal(const ScopedGlobal&) = delete;
    ScopedGlobal& operator=(const ScopedGlobal&) = delete;

   private:
    ThreadPool* previous_;
  };

 private:
  void worker_loop();
  void run_job(const std::shared_ptr<detail::ParallelForJob>& job);
  static void drain_job(detail::ParallelForJob& job);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

}  // namespace osp::util
