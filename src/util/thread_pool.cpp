#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/check.hpp"

namespace osp::util {

namespace {

std::atomic<ThreadPool*> g_global_override{nullptr};

std::size_t default_pool_size() {
  if (const char* env = std::getenv("OSP_NUM_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

thread_local bool t_in_tracked_task = false;

}  // namespace

namespace detail {

void TaskState::run() {
  int expected = kQueued;
  if (!status.compare_exchange_strong(expected, kRunning,
                                      std::memory_order_acq_rel)) {
    return;  // someone else claimed it (worker vs. stealing joiner)
  }
  const bool was_in_task = t_in_tracked_task;
  t_in_tracked_task = true;
  // A throwing task must still finish: escaping a pool worker would
  // terminate the process, and escaping a stolen join would leave the task
  // running forever (joiners hang, the in-flight count never drops). The
  // exception is handed to every join instead.
  try {
    fn();
  } catch (...) {
    error = std::current_exception();
  }
  // Drop the captures before joiners can see `done`: a callable that owns
  // the object holding this task's handle (the engine's math jobs do) would
  // otherwise keep that object, and this state, alive forever.
  fn = nullptr;
  t_in_tracked_task = was_in_task;
  if (tracked != nullptr) {
    tracked->fetch_sub(1, std::memory_order_relaxed);
  }
  status.store(kDone, std::memory_order_release);
  {
    std::scoped_lock lock(mu);
    done = true;
  }
  done_cv.notify_all();
}

}  // namespace detail

bool TaskHandle::ready() const {
  return state_ != nullptr &&
         state_->status.load(std::memory_order_acquire) ==
             detail::TaskState::kDone;
}

void TaskHandle::join() {
  if (state_ == nullptr) return;
  // Steal: if the task is still queued, claim and run it here. The pool's
  // queued wrapper later finds the claim CAS failing and does nothing.
  state_->run();
  std::unique_lock lock(state_->mu);
  state_->done_cv.wait(lock, [&] { return state_->done; });
  if (state_->error) std::rethrow_exception(state_->error);
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = default_pool_size();
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mu_);
    stopping_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  OSP_CHECK(task != nullptr, "null task");
  {
    std::scoped_lock lock(mu_);
    OSP_CHECK(!stopping_, "submit after shutdown");
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

TaskHandle ThreadPool::submit_task(std::function<void()> task) {
  OSP_CHECK(task != nullptr, "null task");
  auto state = std::make_shared<detail::TaskState>();
  state->fn = std::move(task);
  state->tracked = &tracked_in_flight_;
  tracked_in_flight_.fetch_add(1, std::memory_order_relaxed);
  submit([state] { state->run(); });
  return TaskHandle(std::move(state));
}

bool ThreadPool::in_task() { return t_in_tracked_task; }

void ThreadPool::wait_idle() {
  std::unique_lock lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::drain_job(detail::ParallelForJob& job) {
  std::size_t mine = 0;
  for (;;) {
    const std::size_t c = job.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.num_chunks) break;
    const std::size_t begin = c * job.chunk;
    const std::size_t end = std::min(job.n, begin + job.chunk);
    job.invoke(job.fn, begin, end);
    ++mine;
  }
  if (mine > 0) {
    bool all_done;
    {
      std::scoped_lock lock(job.mu);
      job.completed += mine;
      all_done = job.completed == job.num_chunks;
    }
    if (all_done) job.done.notify_all();
  }
}

void ThreadPool::run_job(const std::shared_ptr<detail::ParallelForJob>& job) {
  // The caller takes chunks too, so at most num_chunks - 1 helpers are
  // useful. Each helper shares ownership of the control block; the
  // callable itself stays on the caller's stack and is only dereferenced
  // while a claimed chunk runs — i.e. strictly before the completion wait
  // below returns.
  const std::size_t helpers =
      std::min(workers_.size(), job->num_chunks - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    submit([job] { drain_job(*job); });
  }
  drain_job(*job);
  // Wait for every chunk to finish. Helpers that have not even started yet
  // can never claim one at this point (next is exhausted), so this wait
  // only covers helpers mid-chunk — it cannot deadlock, even when this
  // caller is itself a pool worker inside an outer parallel_for.
  std::unique_lock lock(job->mu);
  job->done.wait(lock, [&] { return job->completed == job->num_chunks; });
}

ThreadPool& ThreadPool::global() {
  if (ThreadPool* override_pool =
          g_global_override.load(std::memory_order_acquire)) {
    return *override_pool;
  }
  static ThreadPool pool;
  return pool;
}

ThreadPool::ScopedGlobal::ScopedGlobal(ThreadPool& pool)
    : previous_(g_global_override.exchange(&pool, std::memory_order_acq_rel)) {
}

ThreadPool::ScopedGlobal::~ScopedGlobal() {
  g_global_override.store(previous_, std::memory_order_release);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      task_available_.wait(lock,
                           [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::scoped_lock lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace osp::util
