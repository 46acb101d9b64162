// Unit tests for the util module: RNG determinism and distribution sanity,
// online statistics, the thread pool, tables, and flat-vector kernels.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/small_function.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/vec_math.hpp"

namespace osp::util {
namespace {

TEST(Check, ThrowsWithMessage) {
  EXPECT_THROW(OSP_CHECK(false, "boom"), CheckError);
  try {
    OSP_CHECK(1 == 2, "math broke");
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("math broke"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Check, PassesSilently) {
  EXPECT_NO_THROW(OSP_CHECK(true));
  EXPECT_NO_THROW(OSP_CHECK(2 + 2 == 4, "arithmetic"));
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkIsIndependentOfParentUse) {
  Rng a(7);
  Rng child1 = a.fork(3);
  (void)a.next_u64();
  Rng b(7);
  Rng child2 = b.fork(3);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(child1.next_u64(), child2.next_u64());
  }
}

TEST(Rng, ForkStreamsDiffer) {
  Rng a(7);
  Rng c0 = a.fork(0);
  Rng c1 = a.fork(1);
  EXPECT_NE(c0.next_u64(), c1.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformU64Bounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform_u64(17), 17u);
  }
}

TEST(Rng, UniformU64RejectsZero) {
  Rng rng(5);
  EXPECT_THROW((void)rng.uniform_u64(0), CheckError);
}

TEST(Rng, UniformU64CoversAllValues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_u64(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(11);
  OnlineStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.03);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.03);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(13);
  OnlineStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.exponential(4.0));
  EXPECT_NEAR(stats.mean(), 0.25, 0.01);
}

TEST(Rng, ExponentialRejectsNonPositiveRate) {
  Rng rng(1);
  EXPECT_THROW((void)rng.exponential(0.0), CheckError);
  EXPECT_THROW((void)rng.exponential(-1.0), CheckError);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(3);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  rng.shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 50; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Rng, ShuffleDeterministic) {
  std::vector<int> a(20), b(20);
  std::iota(a.begin(), a.end(), 0);
  std::iota(b.begin(), b.end(), 0);
  Rng r1(9), r2(9);
  r1.shuffle(a);
  r2.shuffle(b);
  EXPECT_EQ(a, b);
}

TEST(OnlineStats, BasicMoments) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, SingleSampleVarianceZero) {
  OnlineStats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, MergeMatchesCombined) {
  Rng rng(17);
  OnlineStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a, b;
  a.add(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(Ema, FirstValuePassesThrough) {
  Ema ema(0.5);
  EXPECT_TRUE(ema.empty());
  ema.add(10.0);
  EXPECT_DOUBLE_EQ(ema.value(), 10.0);
}

TEST(Ema, Smooths) {
  Ema ema(0.5);
  ema.add(10.0);
  ema.add(0.0);
  EXPECT_DOUBLE_EQ(ema.value(), 5.0);
  ema.add(5.0);
  EXPECT_DOUBLE_EQ(ema.value(), 5.0);
}

TEST(Ema, RejectsBadAlpha) {
  EXPECT_THROW(Ema(0.0), CheckError);
  EXPECT_THROW(Ema(1.5), CheckError);
}

TEST(Percentile, Interpolates) {
  std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 2.5);
}

TEST(Percentile, SingleElement) {
  std::vector<double> xs = {7.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.99), 7.0);
}

TEST(Percentile, RejectsEmptyAndBadQ) {
  std::vector<double> xs;
  EXPECT_THROW((void)percentile(xs, 0.5), CheckError);
  std::vector<double> one = {1.0};
  EXPECT_THROW((void)percentile(one, 1.5), CheckError);
}

TEST(MeanStddev, Basics) {
  std::vector<double> xs = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.0);
  EXPECT_DOUBLE_EQ(stddev(xs), 1.0);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{5.0}), 0.0);
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.parallel_for(
      hits.size(),
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
      },
      16);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForSmallRunsInline) {
  ThreadPool pool(4);
  std::vector<int> hits(10, 0);  // non-atomic: must run on one thread
  pool.parallel_for(
      10,
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) hits[i] += 1;
      },
      1024);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, SizeReflectsConstruction) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, ParallelForSkewedWorkCoversExactlyOnce) {
  // Dynamic chunk claiming must still visit every index exactly once when
  // per-index cost is wildly skewed (front-loaded work).
  ThreadPool pool(4);
  const std::size_t n = 4096;
  std::vector<std::atomic<int>> hits(n);
  std::atomic<long long> sink{0};
  pool.parallel_for(
      n,
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          long long acc = 0;
          const std::size_t spin = i < 64 ? 20000 : 1;
          for (std::size_t s = 0; s < spin; ++s) acc += static_cast<long long>(s ^ i);
          sink.fetch_add(acc, std::memory_order_relaxed);
          hits[i].fetch_add(1);
        }
      },
      16);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedParallelForCompletes) {
  // An inner parallel_for issued from inside an outer chunk must not
  // deadlock: the inner caller can always drain its own chunks.
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64 * 64);
  pool.parallel_for(
      64,
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          pool.parallel_for(
              64,
              [&, i](std::size_t b2, std::size_t e2) {
                for (std::size_t j = b2; j < e2; ++j) {
                  hits[i * 64 + j].fetch_add(1);
                }
              },
              4);
        }
      },
      1);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ScopedGlobalOverridesAndRestores) {
  ThreadPool& original = ThreadPool::global();
  {
    ThreadPool pool(2);
    ThreadPool::ScopedGlobal guard(pool);
    EXPECT_EQ(&ThreadPool::global(), &pool);
    {
      ThreadPool inner(5);
      ThreadPool::ScopedGlobal nested(inner);
      EXPECT_EQ(&ThreadPool::global(), &inner);
    }
    EXPECT_EQ(&ThreadPool::global(), &pool);
  }
  EXPECT_EQ(&ThreadPool::global(), &original);
}

TEST(Table, AlignsAndCounts) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  EXPECT_EQ(t.rows(), 2u);
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22222"), std::string::npos);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(Table, CsvEscapesSpecials) {
  Table t({"x"});
  t.add_row({"has,comma"});
  t.add_row({"has\"quote"});
  std::ostringstream os;
  t.print_csv(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(s.find("\"has\"\"quote\""), std::string::npos);
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(2.0, 0), "2");
}

TEST(VecMath, Axpy) {
  std::vector<float> x = {1, 2, 3};
  std::vector<float> y = {10, 20, 30};
  axpy(2.0f, x, y);
  EXPECT_FLOAT_EQ(y[0], 12.0f);
  EXPECT_FLOAT_EQ(y[1], 24.0f);
  EXPECT_FLOAT_EQ(y[2], 36.0f);
}

TEST(VecMath, AxpySizeMismatchThrows) {
  std::vector<float> x = {1, 2};
  std::vector<float> y = {1};
  EXPECT_THROW(axpy(1.0f, x, y), CheckError);
}

TEST(VecMath, DotAndNorms) {
  std::vector<float> a = {3, 4};
  EXPECT_DOUBLE_EQ(l1_norm(a), 7.0);
}

TEST(VecMath, AbsProdSum) {
  std::vector<float> a = {1, -2, 3};
  std::vector<float> b = {-4, 5, 6};
  EXPECT_DOUBLE_EQ(abs_prod_sum(a, b), 4.0 + 10.0 + 18.0);
}

TEST(VecMath, LargeReductionsMatchSerialAndThreadCounts) {
  // Above ~1M elements the reductions switch to fixed-chunk parallel
  // partials; the result must be deterministic across pool sizes and
  // close to the straight serial sum.
  const std::size_t n = (1u << 20) + 1234;
  std::vector<float> a(n), b(n);
  Rng rng(31337);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = static_cast<float>(rng.normal());
    b[i] = static_cast<float>(rng.normal());
  }
  double serial = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    serial += std::abs(static_cast<double>(a[i]) * static_cast<double>(b[i]));
  }
  double d1, d5;
  {
    ThreadPool pool(1);
    ThreadPool::ScopedGlobal guard(pool);
    d1 = abs_prod_sum(a, b);
  }
  {
    ThreadPool pool(5);
    ThreadPool::ScopedGlobal guard(pool);
    d5 = abs_prod_sum(a, b);
  }
  EXPECT_EQ(d1, d5);  // bit-deterministic across thread counts
  EXPECT_NEAR(d1, serial, 1e-6 * n);
  {
    ThreadPool pool(3);
    ThreadPool::ScopedGlobal guard(pool);
    EXPECT_GT(l1_norm(a), 0.0);
  }
}

TEST(VecMath, CopyFillSubAdd) {
  std::vector<float> a = {1, 2, 3};
  std::vector<float> b(3);
  copy(a, b);
  EXPECT_EQ(b, a);
  fill(b, 7.0f);
  EXPECT_FLOAT_EQ(b[1], 7.0f);
  std::vector<float> d(3);
  sub(a, a, d);
  EXPECT_FLOAT_EQ(d[2], 0.0f);
  add(a, a, d);
  EXPECT_FLOAT_EQ(d[2], 6.0f);
}

TEST(VecMath, ScaleInPlace) {
  std::vector<float> a = {1, -2};
  scale(a, -2.0f);
  EXPECT_FLOAT_EQ(a[0], -2.0f);
  EXPECT_FLOAT_EQ(a[1], 4.0f);
}

TEST(SmallFunction, InvokesInlineCapture) {
  int hits = 0;
  SmallFunction<void()> fn = [&hits] { ++hits; };
  ASSERT_TRUE(static_cast<bool>(fn));
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFunction, DefaultConstructedIsEmpty) {
  SmallFunction<int(int)> fn;
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(SmallFunction, PassesArgumentsAndReturnsValues) {
  SmallFunction<int(int, int)> add = [](int a, int b) { return a + b; };
  EXPECT_EQ(add(2, 3), 5);
}

TEST(SmallFunction, MoveTransfersCallableAndEmptiesSource) {
  int hits = 0;
  SmallFunction<void()> a = [&hits] { ++hits; };
  SmallFunction<void()> b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
}

TEST(SmallFunction, MoveOnlyCapturesWork) {
  auto p = std::make_unique<int>(41);
  SmallFunction<int()> fn = [p = std::move(p)] { return *p + 1; };
  SmallFunction<int()> moved = std::move(fn);
  EXPECT_EQ(moved(), 42);
}

TEST(SmallFunction, DestroysCaptureExactlyOnce) {
  // Counts destructions of a live (non-moved-from) capture through
  // construct, two moves, and destruction — exactly one net destroy.
  static int live = 0;
  struct Probe {
    bool owner = true;
    Probe() { ++live; }
    Probe(Probe&& o) noexcept : owner(o.owner) { o.owner = false; }
    Probe(const Probe& o) : owner(o.owner) {}
    ~Probe() {
      if (owner) --live;
    }
  };
  live = 0;
  {
    SmallFunction<void()> a = [probe = Probe{}] { (void)probe; };
    EXPECT_EQ(live, 1);
    SmallFunction<void()> b = std::move(a);
    SmallFunction<void()> c;
    c = std::move(b);
    EXPECT_EQ(live, 1);
  }
  EXPECT_EQ(live, 0);
}

TEST(SmallFunction, LargeCapturesSpillToHeap) {
  // A capture bigger than the inline buffer still works (heap path) and
  // survives moves.
  std::array<double, 32> big{};
  big[0] = 1.5;
  big[31] = 2.5;
  SmallFunction<double(), 16> fn = [big] { return big[0] + big[31]; };
  SmallFunction<double(), 16> moved = std::move(fn);
  EXPECT_DOUBLE_EQ(moved(), 4.0);
}

TEST(ParallelMap, ReturnsResultsInIndexOrder) {
  ThreadPool pool(4);
  const auto out =
      parallel_map(pool, 100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelMap, RunsEveryJobExactlyOnce) {
  ThreadPool pool(3);
  std::atomic<int> calls{0};
  const auto out = parallel_map(pool, 57, [&calls](std::size_t i) {
    calls.fetch_add(1, std::memory_order_relaxed);
    return static_cast<int>(i);
  });
  EXPECT_EQ(calls.load(), 57);
  EXPECT_EQ(out.size(), 57u);
}

TEST(ParallelMap, EmptyAndSingle) {
  ThreadPool pool(2);
  EXPECT_TRUE(parallel_map(pool, 0, [](std::size_t) { return 1; }).empty());
  const auto one = parallel_map(pool, 1, [](std::size_t i) { return i + 7; });
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 7u);
}

TEST(ParallelMap, GlobalPoolOverload) {
  const auto out = parallel_map(16, [](std::size_t i) { return 2 * i; });
  ASSERT_EQ(out.size(), 16u);
  EXPECT_EQ(out[15], 30u);
}

TEST(ThreadPoolTasks, SubmitTaskRunsAndJoinIsIdempotent) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  TaskHandle h = pool.submit_task([&ran] { ran.fetch_add(1); });
  ASSERT_TRUE(h.valid());
  h.join();
  EXPECT_TRUE(h.ready());
  EXPECT_EQ(ran.load(), 1);
  h.join();  // joining a finished task is a no-op
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolTasks, DefaultHandleIsEmpty) {
  TaskHandle h;
  EXPECT_FALSE(h.valid());
  EXPECT_FALSE(h.ready());
  h.join();  // no-op, must not block or crash
}

TEST(ThreadPoolTasks, JoinStealsQueuedTask) {
  // Occupy the only worker, then join a task that is still queued: the
  // joining (main) thread must claim and run it inline instead of waiting
  // for the queue to drain.
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  pool.submit([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  std::thread::id ran_on{};
  TaskHandle h =
      pool.submit_task([&ran_on] { ran_on = std::this_thread::get_id(); });
  h.join();  // worker is blocked — this must steal
  EXPECT_TRUE(h.ready());
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  release.store(true);
  pool.wait_idle();
}

TEST(ThreadPoolTasks, TasksInFlightCountsSubmittedUntilDone) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.tasks_in_flight(), 0u);
  std::atomic<bool> release{false};
  std::vector<TaskHandle> handles;
  for (int i = 0; i < 4; ++i) {
    handles.push_back(pool.submit_task([&release] {
      while (!release.load()) std::this_thread::yield();
    }));
  }
  EXPECT_EQ(pool.tasks_in_flight(), 4u);
  release.store(true);
  for (TaskHandle& h : handles) h.join();
  EXPECT_EQ(pool.tasks_in_flight(), 0u);
}

TEST(ThreadPoolTasks, InTaskFlagTracksTrackedExecution) {
  ThreadPool pool(2);
  EXPECT_FALSE(ThreadPool::in_task());
  bool inside = false;
  TaskHandle h =
      pool.submit_task([&inside] { inside = ThreadPool::in_task(); });
  h.join();
  EXPECT_TRUE(inside);
  EXPECT_FALSE(ThreadPool::in_task());  // restored after a stolen join too
}

TEST(ThreadPoolTasks, SaturatedTasksRunParallelForInline) {
  // With at least as many tracked tasks in flight as pool workers, a
  // parallel_for issued from inside a tracked task must run inline (one
  // fn(0, n) call on the calling thread): outer task-level parallelism
  // already owns every core. Two spinning blocker tasks pin
  // tasks_in_flight() >= size() for the whole probe, and the probe task is
  // joined while queued, so the main thread steals and runs it as a
  // tracked task deterministically.
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  std::vector<TaskHandle> blockers;
  for (int t = 0; t < 2; ++t) {
    blockers.push_back(pool.submit_task([&release] {
      while (!release.load()) std::this_thread::yield();
    }));
  }
  std::atomic<int> calls{0};
  std::atomic<bool> one_chunk_full_range{false};
  std::atomic<bool> on_caller_thread{false};
  TaskHandle probe = pool.submit_task([&] {
    const std::thread::id self = std::this_thread::get_id();
    pool.parallel_for(
        8192,
        [&](std::size_t b, std::size_t e) {
          calls.fetch_add(1);
          one_chunk_full_range.store(b == 0 && e == 8192);
          on_caller_thread.store(std::this_thread::get_id() == self);
        },
        1);
  });
  probe.join();  // stolen: runs inline on this thread, under saturation
  EXPECT_EQ(calls.load(), 1);
  EXPECT_TRUE(one_chunk_full_range.load());
  EXPECT_TRUE(on_caller_thread.load());
  release.store(true);
  for (TaskHandle& h : blockers) h.join();
}

TEST(ThreadPoolTasks, FinishedTaskReleasesItsCallable) {
  // Whatever a task captured is released once it has run, whether a pool
  // worker ran it or join() stole it. The engine's math jobs hold their own
  // task's handle, so a callable kept past its run would leak every job.
  ThreadPool pool(2);
  for (int i = 0; i < 16; ++i) {
    auto payload = std::make_shared<int>(i);
    TaskHandle h = pool.submit_task([payload] { (void)*payload; });
    h.join();
    EXPECT_EQ(payload.use_count(), 1) << "task " << i;
  }
}

TEST(ThreadPoolTasks, JoinRethrowsTaskException) {
  // A throwing task still finishes: the worker survives, the in-flight
  // count drops, and every join (not only the first) rethrows.
  ThreadPool pool(1);
  TaskHandle ran_on_worker =
      pool.submit_task([] { throw std::runtime_error("worker"); });
  pool.wait_idle();  // the pool worker ran it
  EXPECT_TRUE(ran_on_worker.ready());
  EXPECT_THROW(ran_on_worker.join(), std::runtime_error);
  EXPECT_THROW(ran_on_worker.join(), std::runtime_error);
  EXPECT_EQ(pool.tasks_in_flight(), 0u);

  // Occupy the only worker so the join steals the throwing task.
  std::atomic<bool> release{false};
  pool.submit([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  TaskHandle stolen =
      pool.submit_task([] { throw std::runtime_error("stolen"); });
  EXPECT_THROW(stolen.join(), std::runtime_error);
  EXPECT_TRUE(stolen.ready());
  EXPECT_FALSE(ThreadPool::in_task());
  EXPECT_THROW(stolen.join(), std::runtime_error);
  EXPECT_EQ(pool.tasks_in_flight(), 0u);
  release.store(true);
  pool.wait_idle();

  // The worker thread is still alive and serving tasks.
  std::atomic<int> ran{0};
  TaskHandle after = pool.submit_task([&ran] { ran.fetch_add(1); });
  after.join();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolTasks, ManyTasksAllComplete) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  std::vector<TaskHandle> handles;
  for (int i = 0; i < 64; ++i) {
    handles.push_back(pool.submit_task([&count] { count.fetch_add(1); }));
  }
  for (TaskHandle& h : handles) h.join();
  EXPECT_EQ(count.load(), 64);
  EXPECT_EQ(pool.tasks_in_flight(), 0u);
}

}  // namespace
}  // namespace osp::util
