// A fixed-size worker pool with an OpenMP-style parallel_for and a
// joinable task-submission API.
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
// submit_task() is the coarse-grained sibling: it enqueues one independent
// unit of work (the engine's per-worker FP+BP jobs) and hands back a
// TaskHandle the producer joins later. Joining a task that has not started
// yet *steals* it — the joining thread claims and runs it inline instead
// of blocking on a busy queue, so a consumer is never stuck behind
// unrelated work.
//
// Saturation heuristic: when a tracked task itself calls parallel_for
// while enough tracked tasks are in flight to occupy every pool worker,
// the loop runs inline on the calling thread. Outer task-level parallelism
// already owns all the cores at that point; fanning the inner kernel out
// would only queue helper chunks behind other tasks and pay scheduling
// overhead for zero extra concurrency. Kernel results are bit-identical
// either way (see parallel_for's determinism contract), so the heuristic
// affects wall-clock only.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
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

/// State shared between a submitted task, the pool worker that may run it,
/// and the TaskHandle that joins it. `status` moves queued → running →
/// done; the queued → running transition is a CAS so exactly one thread
/// (a pool worker or a stealing joiner) executes the callable.
struct TaskState {
  enum : int { kQueued = 0, kRunning = 1, kDone = 2 };

  std::function<void()> fn;
  std::atomic<std::size_t>* tracked = nullptr;  // pool's in-flight counter
  std::atomic<int> status{kQueued};
  std::exception_ptr error;  // what fn threw; published by `done`

  std::mutex mu;
  std::condition_variable done_cv;
  bool done = false;  // guarded by mu

  /// Claim and execute (at most once); marks done and notifies joiners.
  /// Never throws: an exception from fn is stored in `error`.
  void run();
};

}  // namespace detail

/// Join handle for one submit_task() call. Default-constructed handles are
/// empty; joining one is a no-op.
class TaskHandle {
 public:
  TaskHandle() = default;

  [[nodiscard]] bool valid() const { return state_ != nullptr; }

  /// True once the task has finished executing (never true for a handle
  /// that was default-constructed).
  [[nodiscard]] bool ready() const;

  /// Block until the task has run. If it is still sitting in the queue the
  /// calling thread claims and runs it inline (work stealing) — the join
  /// latency is then the task's own runtime, not the queue depth. If the
  /// task threw, every join rethrows its exception.
  void join();

 private:
  friend class ThreadPool;
  explicit TaskHandle(std::shared_ptr<detail::TaskState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::TaskState> state_;
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

  /// Enqueue a *tracked* task and return a handle the producer can join.
  /// Tracked tasks count toward tasks_in_flight() (the saturation
  /// heuristic's input) and set the in_task() flag while running.
  [[nodiscard]] TaskHandle submit_task(std::function<void()> task);

  /// Tracked tasks submitted but not yet finished (approximate — callers
  /// use it only as a load heuristic).
  [[nodiscard]] std::size_t tasks_in_flight() const {
    return tracked_in_flight_.load(std::memory_order_relaxed);
  }

  /// True while the calling thread is executing a tracked task (including
  /// a task stolen by TaskHandle::join).
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
    if (n <= grain || size() <= 1) {
      fn(0, n);
      return;
    }
    // Saturation heuristic: a tracked task fanning out while every worker
    // already has (or is queued) a tracked task would gain no concurrency.
    if (in_task() && tasks_in_flight() >= size()) {
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
  std::atomic<std::size_t> tracked_in_flight_{0};
};

}  // namespace osp::util
