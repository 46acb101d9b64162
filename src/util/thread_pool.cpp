#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <exception>

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

// True while this thread executes a TaskQueue task.
thread_local bool t_in_queue_task = false;

}  // namespace

namespace detail {

/// One TaskQueue entry. `status` moves queued → running → done, or queued
/// → done when a cancel or the queue's teardown drops it; every field is
/// guarded by the owning queue's mutex.
struct QueuedTask {
  enum : int { kQueued = 0, kRunning = 1, kDone = 2 };

  std::function<void()> fn;
  int status = kQueued;
  std::exception_ptr error;  // what fn threw
};

struct TaskQueueState {
  std::mutex mu;
  // Signalled when a task finishes, and on a foreground push while a join
  // waits.
  std::condition_variable cv;
  // Queued tickets in push order. A join or cancel that takes a task out of
  // turn only changes its status; the lanes skip such entries when popped.
  std::deque<TaskTicket> foreground;
  std::deque<TaskTicket> background;
  std::size_t max_runners = 0;
  std::size_t runners = 0;   // runner tasks submitted and not yet exited
  std::size_t running = 0;   // tasks executing right now
  std::size_t waiting = 0;   // joins blocked on cv
  bool closed = false;       // the queue's owner is tearing it down
};

namespace {

/// The oldest still-queued ticket of `lane`, or null.
TaskTicket pop_queued(std::deque<TaskTicket>& lane) {
  while (!lane.empty()) {
    TaskTicket t = std::move(lane.front());
    lane.pop_front();
    if (t->status == QueuedTask::kQueued) return t;
  }
  return nullptr;
}

/// Run the queued `task` with `lock` (on s.mu) held on entry and exit.
/// Never throws: what the task throws is kept for its joins. The callable
/// is dropped before `done` is published, so its captures never outlive
/// the run (the engine's jobs hold their own tickets).
void run_locked(TaskQueueState& s, std::unique_lock<std::mutex>& lock,
                const TaskTicket& task) {
  task->status = QueuedTask::kRunning;
  ++s.running;
  std::function<void()> fn = std::move(task->fn);
  lock.unlock();
  std::exception_ptr error;
  const bool was_in_task = t_in_queue_task;
  t_in_queue_task = true;
  try {
    fn();
  } catch (...) {
    error = std::current_exception();
  }
  t_in_queue_task = was_in_task;
  fn = nullptr;
  lock.lock();
  task->error = std::move(error);
  task->status = QueuedTask::kDone;
  --s.running;
  s.cv.notify_all();
}

/// A runner: serve the queue until it holds no task, foreground first.
void serve(const std::shared_ptr<TaskQueueState>& s) {
  std::unique_lock lock(s->mu);
  for (;;) {
    TaskTicket next = pop_queued(s->foreground);
    if (next == nullptr) next = pop_queued(s->background);
    if (next == nullptr) break;
    run_locked(*s, lock, next);
  }
  --s->runners;
}

}  // namespace

}  // namespace detail

TaskQueue::TaskQueue(ThreadPool& pool, std::size_t max_runners)
    : pool_(&pool), state_(std::make_shared<detail::TaskQueueState>()) {
  state_->max_runners = max_runners;
}

TaskQueue::~TaskQueue() {
  // Runners that start after this point find both lanes empty and exit
  // without touching anything but the shared state they hold.
  std::vector<std::function<void()>> dropped;
  std::unique_lock lock(state_->mu);
  state_->closed = true;
  for (auto* lane : {&state_->foreground, &state_->background}) {
    for (const TaskTicket& t : *lane) {
      if (t->status != detail::QueuedTask::kQueued) continue;
      t->status = detail::QueuedTask::kDone;
      dropped.push_back(std::move(t->fn));
    }
    lane->clear();
  }
  state_->cv.wait(lock, [this] { return state_->running == 0; });
  lock.unlock();
  dropped.clear();  // release the captures outside the lock
}

TaskTicket TaskQueue::push(std::function<void()> fn, Lane lane) {
  OSP_CHECK(fn != nullptr, "null task");
  auto task = std::make_shared<detail::QueuedTask>();
  task->fn = std::move(fn);
  detail::TaskQueueState& s = *state_;
  bool spawn = false;
  {
    std::scoped_lock lock(s.mu);
    OSP_CHECK(!s.closed, "push to a closed task queue");
    std::deque<TaskTicket>& q =
        lane == Lane::kForeground ? s.foreground : s.background;
    // Shed entries that joins and cancels took out of turn, so a queue no
    // runner drains does not grow with them.
    while (!q.empty() && q.front()->status != detail::QueuedTask::kQueued) {
      q.pop_front();
    }
    q.push_back(task);
    if (lane == Lane::kForeground && s.waiting > 0) s.cv.notify_all();
    if (s.runners < s.max_runners) {
      ++s.runners;
      spawn = true;
    }
  }
  if (spawn) pool_->submit([state = state_] { detail::serve(state); });
  return task;
}

void TaskQueue::join(const TaskTicket& task) {
  if (task == nullptr) return;
  detail::TaskQueueState& s = *state_;
  std::unique_lock lock(s.mu);
  while (task->status != detail::QueuedTask::kDone) {
    if (task->status == detail::QueuedTask::kQueued) {
      detail::run_locked(s, lock, task);  // its lane entry is now skipped
    } else if (TaskTicket other = detail::pop_queued(s.foreground)) {
      detail::run_locked(s, lock, other);
    } else {
      ++s.waiting;
      s.cv.wait(lock);
      --s.waiting;
    }
  }
  if (task->error) std::rethrow_exception(task->error);
}

bool TaskQueue::cancel(const TaskTicket& task) {
  if (task == nullptr) return false;
  std::function<void()> dropped;
  std::scoped_lock lock(state_->mu);
  if (task->status != detail::QueuedTask::kQueued) return false;
  task->status = detail::QueuedTask::kDone;
  dropped = std::move(task->fn);
  return true;
}

bool TaskQueue::done(const TaskTicket& task) const {
  std::scoped_lock lock(state_->mu);
  return task->status == detail::QueuedTask::kDone;
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

bool ThreadPool::in_task() { return t_in_queue_task; }

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
