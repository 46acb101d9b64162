// Chaos suite for the deterministic fault-injection layer: seeded replay,
// crash/restart survival of the real sync models through the real Engine,
// link flaps during ICS, RS deadlines, and the golden regression that pins
// the healthy path (empty FaultSchedule) to the pre-fault-layer
// trajectories.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/osp_sync.hpp"
#include "models/zoo.hpp"
#include "runtime/engine.hpp"
#include "sim/cluster.hpp"
#include "sim/faults.hpp"
#include "sync/async.hpp"
#include "sync/bsp.hpp"
#include "sync/casp.hpp"
#include "sync/kv_bsp.hpp"
#include "sync/r2sp.hpp"
#include "util/check.hpp"

namespace osp {
namespace {

runtime::EngineConfig golden_config() {
  runtime::EngineConfig cfg;
  cfg.num_workers = 4;
  cfg.max_epochs = 3;
  cfg.seed = 42;
  cfg.straggler_jitter = 0.1;
  return cfg;
}

runtime::RunResult run_with(runtime::SyncModel& sync,
                            const runtime::EngineConfig& cfg) {
  const runtime::WorkloadSpec spec = models::tiny_mlp();
  runtime::Engine engine(spec, cfg, sync);
  return engine.run();
}

struct PlannedRun {
  runtime::RunResult result;
  std::vector<float> params;
};

/// Runs `sync` on the tiny workload and expects every worker alive at the
/// end to have completed all its planned iterations. A model that stalls
/// makes Engine::run return a truncated result as if training had
/// finished, which only this count exposes.
PlannedRun run_to_plan(runtime::SyncModel& sync,
                       const runtime::EngineConfig& cfg) {
  const runtime::WorkloadSpec spec = models::tiny_mlp();
  runtime::Engine engine(spec, cfg, sync);
  PlannedRun out{engine.run(), {}};
  const std::size_t planned = cfg.max_epochs * engine.batches_per_epoch();
  for (std::size_t w = 0; w < cfg.num_workers; ++w) {
    if (!engine.worker_alive(w)) continue;
    EXPECT_EQ(engine.worker_iteration(w), planned)
        << sync.name() << ": worker " << w << " stopped short";
  }
  const auto params = engine.global_params();
  out.params.assign(params.begin(), params.end());
  return out;
}

/// Resolve the deterministic link ids of the engine's cluster by building
/// an identically-configured throwaway cluster.
struct LinkIds {
  sim::LinkId worker_up0, worker_up1, ps_down;
  explicit LinkIds(runtime::EngineConfig cfg) {
    sim::Simulator s;
    cfg.cluster.num_workers = cfg.num_workers;
    sim::Cluster c(s, cfg.cluster);
    worker_up0 = c.worker_uplink(0);
    worker_up1 = c.worker_uplink(1);
    ps_down = c.ps_downlink();
  }
};

// ---- schedule validation ----

TEST(FaultSchedule, ValidatesEagerly) {
  sim::FaultSchedule s;
  EXPECT_THROW(s.pause_worker(-1.0, 0, 1.0), util::CheckError);
  EXPECT_THROW(s.pause_worker(0.0, 0, 0.0), util::CheckError);
  EXPECT_THROW(s.link_down(0.0, 0, -0.5), util::CheckError);
  EXPECT_THROW(s.degrade_link(0.0, 0, 1.0, 0.0), util::CheckError);
  EXPECT_THROW(s.degrade_link(0.0, 0, 1.0, 1.5), util::CheckError);
  EXPECT_THROW(s.drop_messages(0.0, 1.0, 1.5), util::CheckError);
  EXPECT_THROW(s.delay_messages(0.0, 1.0, -0.1), util::CheckError);
  EXPECT_TRUE(s.empty());
  s.crash_worker(1.0, 2).pause_worker(0.5, 1, 0.25);
  EXPECT_EQ(s.events().size(), 2u);
}

TEST(FaultSchedule, RejectsNonFiniteTimes) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::nan("");
  sim::FaultSchedule s;
  EXPECT_THROW(s.pause_worker(kInf, 0, 1.0), util::CheckError);
  EXPECT_THROW(s.pause_worker(0.0, 0, kInf), util::CheckError);
  EXPECT_THROW(s.link_down(nan, 0, 1.0), util::CheckError);
  EXPECT_THROW(s.link_down(0.0, 0, nan), util::CheckError);
  EXPECT_THROW(s.degrade_link(0.0, 0, kInf, 0.5), util::CheckError);
  EXPECT_THROW(s.delay_messages(0.0, 1.0, kInf), util::CheckError);
  EXPECT_THROW(s.drop_messages(kInf, 1.0, 0.5), util::CheckError);
  EXPECT_THROW(s.crash_worker(kInf, 0), util::CheckError);
  EXPECT_THROW(s.crash_ps(nan, 0), util::CheckError);
  // A NaN downtime used to read as "never restarts"; +inf is no better.
  EXPECT_THROW(s.crash_worker(1.0, 0, nan), util::CheckError);
  EXPECT_THROW(s.crash_ps(1.0, 0, nan), util::CheckError);
  EXPECT_THROW(s.crash_worker(1.0, 0, kInf), util::CheckError);
  EXPECT_THROW(s.crash_ps(1.0, 0, kInf), util::CheckError);
  EXPECT_TRUE(s.empty());
  // Negative still means a permanent crash.
  s.crash_worker(1.0, 0, -1.0).crash_ps(1.0, 0, -kInf).crash_ps(2.0, 0, 0.5);
  ASSERT_EQ(s.events().size(), 3u);
  EXPECT_LT(s.events()[0].duration, 0.0);
  EXPECT_LT(s.events()[1].duration, 0.0);
  EXPECT_EQ(s.events()[2].duration, 0.5);
}

TEST(FaultSchedule, OutOfRangeTargetsRejectedAtInstall) {
  runtime::EngineConfig cfg = golden_config();
  cfg.faults.crash_worker(0.5, /*worker=*/99);
  sync::BspSync sync;
  const runtime::WorkloadSpec spec = models::tiny_mlp();
  runtime::Engine engine(spec, cfg, sync);
  EXPECT_THROW((void)engine.run(), util::CheckError);
}

// ---- golden regression: the empty schedule is the pre-change healthy
// path, bit-for-bit in event order and arithmetic. Times are pure virtual
// arithmetic (tight tolerance); losses cross libm so they get slack. ----

TEST(GoldenRegression, BspUnchangedByFaultLayer) {
  sync::BspSync sync;
  const runtime::RunResult r = run_with(sync, golden_config());
  EXPECT_FALSE(r.faults.any());
  EXPECT_DOUBLE_EQ(r.total_samples, 1536.0);
  EXPECT_NEAR(r.total_time_s, 1.521459172686775, 1.6e-9);
  EXPECT_NEAR(r.mean_bst_s, 0.048871746867496256, 5e-11);
  EXPECT_NEAR(r.mean_bct_s, 0.014522385327786033, 2e-11);
  EXPECT_NEAR(r.final_loss, 0.024709313136008729, 1e-4);
  EXPECT_GE(r.best_metric, 0.99);
}

TEST(GoldenRegression, AspUnchangedByFaultLayer) {
  sync::AsyncSync sync;
  const runtime::RunResult r = run_with(sync, golden_config());
  EXPECT_FALSE(r.faults.any());
  EXPECT_DOUBLE_EQ(r.total_samples, 1536.0);
  EXPECT_NEAR(r.total_time_s, 1.0732457235323365, 1.1e-9);
  EXPECT_NEAR(r.mean_bst_s, 0.029502788591324276, 3e-11);
  EXPECT_NEAR(r.final_loss, 0.024488017046545803, 1e-4);
}

TEST(GoldenRegression, OspUnchangedByFaultLayer) {
  core::OspSync sync;
  const runtime::RunResult r = run_with(sync, golden_config());
  EXPECT_FALSE(r.faults.any());
  EXPECT_DOUBLE_EQ(r.total_samples, 1536.0);
  // Times moved (once) when KvMessage::wire_bytes() started charging the
  // fixed serialization frame per push/response.
  EXPECT_NEAR(r.total_time_s, 1.466892955123156, 1.5e-9);
  EXPECT_NEAR(r.mean_bst_s, 0.046476451769293083, 5e-11);
  EXPECT_NEAR(r.final_loss, 0.024694773532894381, 1e-4);
}

// ---- determinism: same schedule + same seed ⇒ identical runs ----

TEST(FaultReplay, SeededChaosIsBitDeterministic) {
  auto chaotic_run = [] {
    runtime::EngineConfig cfg = golden_config();
    const LinkIds ids(cfg);
    cfg.faults.set_seed(99)
        .crash_worker(0.3, 2, /*restart_after=*/0.25)
        .pause_worker(0.15, 1, 0.1)
        .link_down(0.5, ids.ps_down, 0.08)
        .degrade_link(0.7, ids.worker_up0, 0.2, 0.4, 0.1)
        .drop_messages(0.9, 0.2, 0.5)
        .delay_messages(1.1, 0.1, 0.01);
    core::OspSync sync({}, {.rs_timeout_s = 0.3, .ics_timeout_s = 0.3});
    return run_with(sync, cfg);
  };
  const runtime::RunResult a = chaotic_run();
  const runtime::RunResult b = chaotic_run();
  EXPECT_DOUBLE_EQ(a.total_time_s, b.total_time_s);
  EXPECT_DOUBLE_EQ(a.total_samples, b.total_samples);
  EXPECT_DOUBLE_EQ(a.final_loss, b.final_loss);
  EXPECT_DOUBLE_EQ(a.mean_bst_s, b.mean_bst_s);
  EXPECT_EQ(a.faults.worker_crashes, b.faults.worker_crashes);
  EXPECT_EQ(a.faults.worker_restarts, b.faults.worker_restarts);
  EXPECT_EQ(a.faults.messages_dropped, b.faults.messages_dropped);
  EXPECT_EQ(a.faults.messages_delayed, b.faults.messages_delayed);
  EXPECT_EQ(a.faults.flows_cancelled, b.faults.flows_cancelled);
  EXPECT_EQ(a.faults.ps_crashes, b.faults.ps_crashes);
  EXPECT_EQ(a.faults.ps_restarts, b.faults.ps_restarts);
  EXPECT_EQ(a.faults.ps_promotions, b.faults.ps_promotions);
  EXPECT_EQ(a.faults.replica_catchup_bytes, b.faults.replica_catchup_bytes);
  EXPECT_EQ(a.faults.timed_out_rounds, b.faults.timed_out_rounds);
  EXPECT_EQ(a.faults.catch_up_pulls, b.faults.catch_up_pulls);
  EXPECT_DOUBLE_EQ(a.faults.worker_downtime_s, b.faults.worker_downtime_s);
  EXPECT_TRUE(a.faults.any());
}

// ---- crash survival (no timeouts configured: the crash notification
// alone must keep the barrier satisfiable) ----

TEST(CrashSurvival, BspPermanentCrashMidRsNoDeadlock) {
  runtime::EngineConfig cfg = golden_config();
  cfg.max_virtual_time_s = 60.0;  // backstop: a deadlock trips the assert
  cfg.faults.crash_worker(0.4, 2);
  sync::BspSync sync;
  const runtime::RunResult r = run_with(sync, cfg);
  EXPECT_LT(r.total_time_s, 59.0) << "run did not converge (deadlock?)";
  EXPECT_EQ(r.faults.worker_crashes, 1u);
  EXPECT_EQ(r.faults.worker_restarts, 0u);
  EXPECT_GT(r.faults.worker_downtime_s, 0.0);
  // The three survivors finish all their epochs.
  EXPECT_GT(r.total_samples, 3 * 128.0 * 3 - 1.0);
  EXPECT_LT(r.total_samples, 1536.0);
  EXPECT_TRUE(std::isfinite(r.final_loss));
}

TEST(CrashSurvival, OspPermanentCrashMidTrainingCompletes) {
  runtime::EngineConfig cfg = golden_config();
  cfg.max_virtual_time_s = 60.0;
  cfg.faults.crash_worker(0.5, 1);
  // Fixed ICS budget so the crash lands with ICS rounds in flight.
  core::OspOptions opt;
  opt.fixed_budget_fraction = 0.5;
  core::OspSync sync(opt);
  const runtime::RunResult r = run_with(sync, cfg);
  EXPECT_LT(r.total_time_s, 59.0) << "run did not converge (deadlock?)";
  EXPECT_TRUE(r.faults.any());
  EXPECT_EQ(r.faults.worker_crashes, 1u);
  EXPECT_GT(r.faults.worker_downtime_s, 0.0);
  EXPECT_GT(r.total_samples, 0.0);
  EXPECT_TRUE(std::isfinite(r.final_loss));
  // §4.3 fault degradation: with a worker down the GIB collapses to
  // all-important (RS-only) and stays there.
  EXPECT_EQ(sync.num_unhealthy(), 1u);
  EXPECT_EQ(sync.current_gib().count_unimportant(), 0u);
}

TEST(CrashSurvival, CrashedWorkerRestartsAndRejoins) {
  runtime::EngineConfig cfg = golden_config();
  cfg.max_virtual_time_s = 60.0;
  cfg.faults.crash_worker(0.3, 0, /*restart_after=*/0.2);
  sync::BspSync sync;
  const runtime::RunResult r = run_with(sync, cfg);
  EXPECT_LT(r.total_time_s, 59.0);
  EXPECT_EQ(r.faults.worker_crashes, 1u);
  EXPECT_EQ(r.faults.worker_restarts, 1u);
  EXPECT_GE(r.faults.worker_downtime_s, 0.2);
  // The restarted worker finishes its epochs too; the iteration that was
  // in flight at the crash is recomputed, so up to one extra batch of
  // samples may be counted.
  EXPECT_GE(r.total_samples, 1536.0);
  EXPECT_LE(r.total_samples, 1536.0 + 32.0);
}

TEST(CrashSurvival, OspCrashRestartResumesIcs) {
  runtime::EngineConfig cfg = golden_config();
  cfg.max_virtual_time_s = 60.0;
  cfg.faults.crash_worker(0.4, 3, /*restart_after=*/0.15);
  core::OspOptions opt;
  opt.fixed_budget_fraction = 0.5;
  core::OspSync sync(opt, {.rs_timeout_s = 0.5, .ics_timeout_s = 0.5});
  const runtime::RunResult r = run_with(sync, cfg);
  EXPECT_LT(r.total_time_s, 59.0);
  EXPECT_EQ(r.faults.worker_restarts, 1u);
  EXPECT_EQ(sync.num_unhealthy(), 0u);
  EXPECT_DOUBLE_EQ(r.total_samples, 1536.0);
  // After recovery the budget applies again: ICS rounds keep completing.
  EXPECT_GT(sync.ics_rounds_completed(), 0u);
}

// The staleness bound counts only alive workers, so a worker that never
// comes back stops holding SSP and DSSP back; ASP never waited for it.
TEST(CrashSurvival, AsyncProfilesOutliveAPermanentCrash) {
  runtime::EngineConfig cfg = golden_config();
  cfg.max_virtual_time_s = 60.0;
  cfg.faults.crash_worker(0.05, 1);
  for (const sync::Staleness& s :
       {sync::asp(), sync::ssp(2), sync::dssp(1, 3)}) {
    sync::AsyncSync sync(s);
    const PlannedRun run = run_to_plan(sync, cfg);
    EXPECT_EQ(run.result.faults.worker_crashes, 1u) << sync.name();
    EXPECT_EQ(run.result.faults.worker_restarts, 0u) << sync.name();
    // The three survivors' 3 × 384 samples, plus what the crashed worker
    // computed before it died.
    EXPECT_GE(run.result.total_samples, 3 * 384.0) << sync.name();
    EXPECT_LT(run.result.total_samples, 1536.0) << sync.name();
    EXPECT_TRUE(std::isfinite(run.result.final_loss)) << sync.name();
    EXPECT_TRUE(sync.drained()) << sync.name();
  }
}

/// Records whether the crashed worker was parked over the bound.
class ParkProbe : public sync::AsyncSync {
 public:
  using AsyncSync::AsyncSync;
  void on_worker_crashed(std::size_t worker) override {
    crashed_parked = std::count(parked().begin(), parked().end(), worker) > 0;
    AsyncSync::on_worker_crashed(worker);
  }
  bool crashed_parked = false;
};

TEST(CrashSurvival, SspWorkerCrashedWhileParkedRejoins) {
  // Worker 3 runs at a quarter speed, so under SSP(1) the fast workers
  // spend most of the run parked. Worker 0 crashes while parked and is
  // back before worker 3 next raises the minimum. A park entry left behind
  // would then release it mid-compute: its crashed batch would count as
  // done and the redone one be lost.
  auto parked_crash_run = [] {
    runtime::EngineConfig cfg = golden_config();
    cfg.max_virtual_time_s = 60.0;
    cfg.cluster.speed_factors = {1.0, 1.0, 1.0, 0.25};
    cfg.faults.crash_worker(0.33, 0, /*restart_after=*/0.01);
    ParkProbe sync(sync::ssp(1));
    PlannedRun run = run_to_plan(sync, cfg);
    EXPECT_TRUE(sync.crashed_parked) << "the crash missed a parked worker";
    EXPECT_TRUE(sync.drained());
    return run;
  };
  const PlannedRun a = parked_crash_run();
  EXPECT_EQ(a.result.faults.worker_crashes, 1u);
  EXPECT_EQ(a.result.faults.worker_restarts, 1u);
  // The parked worker had finished its batch, but its iteration only
  // counts at release, so the restart redoes that batch.
  EXPECT_DOUBLE_EQ(a.result.total_samples, 1536.0 + 16.0);
  const PlannedRun b = parked_crash_run();
  EXPECT_EQ(a.params, b.params);
  EXPECT_EQ(a.result.total_time_s, b.result.total_time_s);
  EXPECT_EQ(a.result.final_loss, b.result.final_loss);
  EXPECT_EQ(a.result.mean_bst_s, b.result.mean_bst_s);
}

/// BSP that releases worker `w` the instant its restart begins, while its
/// re-pull (or checkpoint read) is still in flight: what an answer landing
/// in that window does, e.g. a broadcast sent before the crash.
class ReleaseDuringRestart : public sync::BspSync {
 public:
  ReleaseDuringRestart(double restart_after, bool release)
      : restart_after_(restart_after), release_(release) {}

  void on_worker_crashed(std::size_t w) override {
    BspSync::on_worker_crashed(w);
    restored_ = false;
    if (!release_) return;
    // The restart event is scheduled after this hook at the same instant:
    // hop once more so the release runs after it.
    eng().sim().schedule(restart_after_, [this, w] {
      eng().sim().schedule(0.0, [this, w] {
        released_in_window_ = eng().worker_alive(w) && !restored_;
        eng().finish_sync(w);
      });
    });
  }
  void on_worker_restarted(std::size_t /*w*/) override { restored_ = true; }

  bool released_in_window_ = false;

 private:
  double restart_after_;
  bool release_;
  bool restored_ = false;
};

TEST(CrashSurvival, ReleaseDuringRestartPullIsIgnored) {
  for (const bool from_checkpoint : {false, true}) {
    auto run = [from_checkpoint](bool release) {
      runtime::EngineConfig cfg = golden_config();
      cfg.max_virtual_time_s = 60.0;
      cfg.checkpoint.every_iters = from_checkpoint ? 4 : 0;
      cfg.checkpoint.restore_crashed_from_checkpoint = from_checkpoint;
      constexpr double kRestartAfter = 0.1;
      cfg.faults.crash_worker(0.9, 1, kRestartAfter);
      ReleaseDuringRestart sync(kRestartAfter, release);
      PlannedRun out = run_to_plan(sync, cfg);
      EXPECT_EQ(sync.released_in_window_, release);
      return out;
    };
    const PlannedRun plain = run(false);
    const PlannedRun released = run(true);
    SCOPED_TRACE(from_checkpoint ? "checkpoint read" : "restart pull");
    EXPECT_EQ(released.result.faults.checkpoint_restores,
              from_checkpoint ? 1u : 0u);
    // The engine owns the worker until its state is back: the early
    // release starts nothing, so the run is the same bit for bit.
    EXPECT_EQ(released.result.total_time_s, plain.result.total_time_s);
    EXPECT_EQ(released.result.total_samples, plain.result.total_samples);
    EXPECT_EQ(released.result.mean_bst_s, plain.result.mean_bst_s);
    EXPECT_EQ(released.params, plain.params);
  }
}

// The restart at t = 0.6 falls inside a window that drops every message:
// the model pull is asked for again once it would have landed, so the
// worker rejoins. Without the retry it stayed restoring for good, and BSP
// with no RS deadline ended the whole run there as if it had finished.
TEST(CrashSurvival, DroppedRestartPullIsRetried) {
  for (const double rs_timeout : {0.0, 0.1}) {
    SCOPED_TRACE(rs_timeout);
    runtime::EngineConfig cfg = golden_config();
    cfg.faults.crash_worker(0.5, 1, /*restart_after=*/0.1)
        .drop_messages(0.59, 0.03, /*drop_prob=*/1.0);
    sync::BspSync sync({.rs_timeout_s = rs_timeout, .ics_timeout_s = 0.0});
    const PlannedRun run = run_to_plan(sync, cfg);
    EXPECT_GT(run.result.faults.messages_dropped, 0u);
    EXPECT_EQ(run.result.faults.worker_restarts, 1u);
  }
}

TEST(CrashSurvival, R2spCrashRestartFreesItsSlot) {
  // A crash cancels the worker's owned push or pull, wherever its slot
  // stands: waiting for its turn, pushing, queued at the PS or pulling.
  // The slot is freed and the redone push served after the restart. With
  // a slow PS the worker can be back while the crashed slot's update is
  // still queued; that update must not answer the redone push. At 0.25 s
  // (duplex) and 0.27 s (serial) such a stale answer lands while the
  // worker computes, which the engine rejects.
  for (const bool overlap_pull : {true, false}) {
    for (const double ps_apply_bytes_per_s : {2.0e9, 1.0e8}) {
      for (const double at : {0.2, 0.25, 0.27, 0.3, 0.4, 0.5, 0.6}) {
        runtime::EngineConfig cfg = golden_config();
        cfg.max_virtual_time_s = 60.0;
        cfg.cluster.ps_apply_bytes_per_s = ps_apply_bytes_per_s;
        cfg.faults.crash_worker(at, 1, /*restart_after=*/0.01);
        sync::R2spSync sync(overlap_pull);
        const PlannedRun run = run_to_plan(sync, cfg);
        const runtime::RunResult& r = run.result;
        EXPECT_LT(r.total_time_s, 59.0) << sync.name() << " at " << at;
        EXPECT_EQ(r.faults.worker_restarts, 1u) << sync.name() << " at " << at;
        EXPECT_GE(r.total_samples, 1536.0) << sync.name() << " at " << at;
        EXPECT_LE(r.total_samples, 1536.0 + 16.0)
            << sync.name() << " at " << at;
        EXPECT_TRUE(sync.drained()) << sync.name() << " at " << at;
      }
    }
  }
}

TEST(CrashSurvival, CaspCrashRestartRejoinsItsGroup) {
  // Two speed groups. A crash withdraws the worker's landed push and its
  // group closes without it; after the restart it rejoins the group, a
  // batch behind if the crash cost it an applied update. Without a
  // restart the group goes on without it. At 0.48 s the worker's push is
  // in flight after its partner's landed, so only the crash notification
  // can close the group.
  for (const double restart_after : {0.1, -1.0}) {
    for (const double at : {0.2, 0.3, 0.4, 0.48, 0.5, 0.6}) {
      runtime::EngineConfig cfg = golden_config();
      cfg.max_virtual_time_s = 60.0;
      cfg.cluster.speed_factors = {1.0, 1.0, 0.5, 0.5};
      cfg.faults.crash_worker(at, 1, restart_after);
      sync::CaspSync sync;
      const PlannedRun run = run_to_plan(sync, cfg);
      const runtime::RunResult& r = run.result;
      EXPECT_TRUE(std::isfinite(r.final_loss)) << at;
      EXPECT_TRUE(sync.drained()) << at;
      if (restart_after < 0.0) {
        EXPECT_EQ(r.faults.worker_restarts, 0u) << at;
        EXPECT_GE(r.total_samples, 3 * 384.0) << at;
        continue;
      }
      EXPECT_EQ(r.faults.worker_restarts, 1u) << at;
      EXPECT_GE(r.total_samples, 1536.0) << at;
      EXPECT_LE(r.total_samples, 1536.0 + 16.0) << at;
    }
  }
}

// ---- KV-core BSP: each shard closes on a RoundBarrier, so a crashed
// worker stops gating it like BSP's and OSP's ----

/// Every KV-core BSP profile: plain KvBSP, sharded over both PS hosts,
/// Top-K with error feedback and Q8.
std::vector<sync::KvBspOptions> kv_core_profiles() {
  return {sync::KvBspOptions{}, sync::sharded_bsp(),
          sync::compressed_bsp(kv::CompressionMode::TopK, 0.25, /*seed=*/99,
                               /*error_feedback=*/true),
          sync::quantized_bsp()};
}

runtime::EngineConfig kv_core_config() {
  runtime::EngineConfig cfg = golden_config();
  cfg.cluster.num_ps = 2;
  cfg.max_virtual_time_s = 60.0;
  return cfg;
}

TEST(KvBspSurvival, PermanentCrashUnderDeadlineRunsToPlan) {
  for (const sync::KvBspOptions& opt : kv_core_profiles()) {
    runtime::EngineConfig cfg = kv_core_config();
    cfg.faults.crash_worker(0.05, 1);
    sync::KvBspSync sync(opt);
    sync.set_timeouts({.rs_timeout_s = 0.1, .ics_timeout_s = 0.0});
    const PlannedRun run = run_to_plan(sync, cfg);
    const runtime::RunResult& r = run.result;
    EXPECT_EQ(r.faults.worker_crashes, 1u) << sync.name();
    // The three survivors' 3 × 384 samples, plus what the crashed worker
    // computed before it died.
    EXPECT_GE(r.total_samples, 3 * 384.0) << sync.name();
    EXPECT_LT(r.total_samples, 1536.0) << sync.name();
    EXPECT_TRUE(std::isfinite(r.final_loss)) << sync.name();
    EXPECT_TRUE(sync.drained()) << sync.name();
  }
}

// A crash at any instant of a round, pushes landed or not, answers in
// flight or not: the worker restarts 10 ms later and every worker still
// completes its plan. A crash after a landed push must not leave a round
// waiting for a count it can no longer reach, and a restart between two
// shards' closes of one round must not leave the last round waiting on
// finished workers.
TEST(KvBspSurvival, CrashRestartSweepRunsToPlan) {
  for (const sync::KvBspOptions& opt : kv_core_profiles()) {
    std::size_t short_runs = 0;
    std::string name;
    for (int i = 1; i <= 300; ++i) {
      runtime::EngineConfig cfg = kv_core_config();
      cfg.faults.crash_worker(0.002 * i, 1, /*restart_after=*/0.01);
      sync::KvBspSync sync(opt);
      name = sync.name();
      const runtime::WorkloadSpec spec = models::tiny_mlp();
      runtime::Engine engine(spec, cfg, sync);
      const runtime::RunResult r = engine.run();
      const std::size_t planned = cfg.max_epochs * engine.batches_per_epoch();
      bool short_run = r.faults.worker_restarts != 1;
      for (std::size_t w = 0; w < cfg.num_workers; ++w) {
        short_run = short_run || engine.worker_iteration(w) != planned;
      }
      short_runs += short_run ? 1 : 0;
    }
    EXPECT_EQ(short_runs, 0u) << name;
  }
}

// Sharded BSP over 2 PS hosts: a shard can close a round while a worker
// is down and the other still collects it. At t = 0.018 worker 1 crashes
// after pushing round 1. Shard 1 closes round 1 while it is down; shard 0
// has not when it is back, and waits for its redone push. That push finds
// the shards apart and goes to round 1 on both: it joins shard 0's round 1
// and lands late on shard 1, which answers with a catch-up pull, instead
// of joining shard 1's round 2 with a gradient of round 1. From then on
// every push finds both shards on the same round. The sweep moves the
// crash across the run.
class ShardRoundProbe : public sync::KvBspSync {
 public:
  ShardRoundProbe() : sync::KvBspSync(sync::sharded_bsp()) {}
  std::size_t apart = 0;         // pushes that found the shards apart
  std::size_t apart_stale = 0;   // ... other than a restart's first push
  void on_worker_restarted(std::size_t w) override {
    restarted_.resize(4, false);
    restarted_[w] = true;
  }
  void on_gradient_ready(std::size_t w) override {
    restarted_.resize(4, false);
    if (rounds_closed(0) != rounds_closed(1)) {
      ++apart;
      if (!restarted_[w]) ++apart_stale;
    }
    restarted_[w] = false;
    sync::KvBspSync::on_gradient_ready(w);
  }

 private:
  std::vector<bool> restarted_;
};

TEST(KvBspSurvival, RestartRealignsShardRounds) {
  const auto run = [](double at) {
    runtime::EngineConfig cfg = kv_core_config();
    cfg.faults.crash_worker(at, 1, /*restart_after=*/0.01);
    auto probe = std::make_unique<ShardRoundProbe>();
    const PlannedRun r = run_to_plan(*probe, cfg);
    EXPECT_EQ(r.result.faults.worker_restarts, 1u) << at;
    EXPECT_EQ(probe->apart_stale, 0u) << at;
    return probe;
  };
  const auto traced = run(0.018);
  EXPECT_EQ(traced->apart, 1u);
  std::size_t apart = 0;
  for (int i = 1; i <= 300; ++i) apart += run(0.002 * i)->apart;
  EXPECT_GT(apart, 0u);
}

// ---- link faults during ICS ----

TEST(LinkFaults, FlapDuringIcsConverges) {
  runtime::EngineConfig cfg = golden_config();
  cfg.max_virtual_time_s = 60.0;
  const LinkIds ids(cfg);
  cfg.faults.link_down(0.3, ids.ps_down, 0.1)
      .link_down(0.6, ids.worker_up1, 0.1)
      .degrade_link(0.9, ids.ps_down, 0.3, 0.25);
  core::OspOptions opt;
  opt.fixed_budget_fraction = 0.5;
  core::OspSync sync(opt, {.rs_timeout_s = 0.5, .ics_timeout_s = 0.5});
  const runtime::RunResult r = run_with(sync, cfg);
  EXPECT_LT(r.total_time_s, 59.0) << "run did not converge (deadlock?)";
  EXPECT_EQ(r.faults.link_down_events, 2u);
  EXPECT_EQ(r.faults.link_degrade_events, 1u);
  // Nobody crashed: every worker finishes every epoch.
  EXPECT_DOUBLE_EQ(r.total_samples, 1536.0);
  EXPECT_TRUE(std::isfinite(r.final_loss));
  EXPECT_GT(sync.ics_rounds_completed(), 0u);
}

// ---- deadlines ----

TEST(Timeouts, RsDeadlineClosesRoundWithSubset) {
  runtime::EngineConfig cfg = golden_config();
  cfg.max_epochs = 1;
  cfg.max_virtual_time_s = 120.0;
  cfg.cluster.speed_factors = {1.0, 1.0, 1.0, 0.05};  // one hard straggler
  sync::BspSync sync({.rs_timeout_s = 0.1, .ics_timeout_s = 0.0});
  const runtime::RunResult r = run_with(sync, cfg);
  EXPECT_LT(r.total_time_s, 119.0);
  // The fast three proceed on the deadline instead of waiting ~20× compute.
  EXPECT_GT(r.faults.timed_out_rounds, 0u);
  EXPECT_GT(r.faults.catch_up_pulls, 0u);
  EXPECT_DOUBLE_EQ(r.total_samples, 512.0);  // everyone still finishes
}

TEST(Timeouts, MessageDropsSurvivedViaDeadlines) {
  runtime::EngineConfig cfg = golden_config();
  cfg.max_epochs = 2;
  cfg.max_virtual_time_s = 120.0;
  cfg.faults.set_seed(1234).drop_messages(0.05, 0.4, /*drop_prob=*/0.6);
  sync::BspSync sync({.rs_timeout_s = 0.15, .ics_timeout_s = 0.0});
  const runtime::RunResult r = run_with(sync, cfg);
  EXPECT_LT(r.total_time_s, 119.0) << "run did not converge (deadlock?)";
  EXPECT_GT(r.faults.messages_dropped, 0u);
  EXPECT_DOUBLE_EQ(r.total_samples, 1024.0);
  EXPECT_TRUE(std::isfinite(r.final_loss));
}

TEST(Timeouts, DroppedMessageDoesNotBlockLaterCheckpoints) {
  runtime::EngineConfig cfg = golden_config();
  cfg.max_virtual_time_s = 60.0;
  cfg.checkpoint.every_iters = 4;
  cfg.faults.drop_messages(0.05, 0.1, /*drop_prob=*/0.3);
  sync::BspSync sync({.rs_timeout_s = 0.05, .ics_timeout_s = 0.0});
  const runtime::RunResult r = run_with(sync, cfg);
  ASSERT_GT(r.faults.messages_dropped, 0u);
  // A dropped message is no flow to wait for: the drain barrier still goes
  // quiescent at every boundary (iterations 4, 8, ..., 20, all past the
  // window's end at t = 0.15), as it does without the window.
  EXPECT_EQ(r.checkpoints_taken, 5u);
}

// ---- checkpoint-based crash recovery ----
// With CheckpointPolicy::restore_crashed_from_checkpoint a restarted
// worker reloads its replica from the latest run checkpoint (a local disk
// read) instead of pulling the full model from the PS over the network.

TEST(CheckpointRecovery, CrashRestoresFromCheckpointDeterministically) {
  auto recovery_run = [](bool restore_from_checkpoint) {
    runtime::EngineConfig cfg = golden_config();
    cfg.max_virtual_time_s = 60.0;
    cfg.checkpoint.every_iters = 4;  // snapshots at iters 4, 8, 12, 16, 20
    cfg.checkpoint.restore_crashed_from_checkpoint = restore_from_checkpoint;
    // Crash lands mid-run; the worker restores from the latest snapshot
    // instead of pulling the model over the network.
    cfg.faults.crash_worker(0.9, 2, /*restart_after=*/0.1);
    sync::BspSync sync;
    return run_with(sync, cfg);
  };

  const runtime::RunResult restore = recovery_run(true);
  EXPECT_EQ(restore.faults.worker_crashes, 1u);
  EXPECT_EQ(restore.faults.worker_restarts, 1u);
  EXPECT_EQ(restore.faults.checkpoint_restores, 1u);
  // Three snapshots land before the crash and two after it. The restored
  // worker trails the pack, but its rounds close without the parked
  // workers, so it reaches every cut too.
  EXPECT_EQ(restore.checkpoints_taken, 5u);
  // No lost rounds: every worker finishes every epoch (the iteration in
  // flight at the crash is recomputed, so up to one extra batch counts),
  // and no barrier round had to be closed by a deadline.
  EXPECT_GE(restore.total_samples, 1536.0);
  EXPECT_LE(restore.total_samples, 1536.0 + 32.0);
  EXPECT_EQ(restore.faults.timed_out_rounds, 0u);
  EXPECT_TRUE(std::isfinite(restore.final_loss));

  // Deterministic replay: the recovery path is seeded simulation like
  // everything else — a second run is bit-identical.
  const runtime::RunResult again = recovery_run(true);
  EXPECT_DOUBLE_EQ(restore.total_time_s, again.total_time_s);
  EXPECT_DOUBLE_EQ(restore.total_samples, again.total_samples);
  EXPECT_DOUBLE_EQ(restore.final_loss, again.final_loss);
  EXPECT_DOUBLE_EQ(restore.faults.worker_downtime_s,
                   again.faults.worker_downtime_s);
  EXPECT_EQ(restore.faults.checkpoint_restores,
            again.faults.checkpoint_restores);

  // The catch-up-pull path is untouched when the policy is off.
  const runtime::RunResult pull = recovery_run(false);
  EXPECT_EQ(pull.faults.worker_restarts, 1u);
  EXPECT_EQ(pull.faults.checkpoint_restores, 0u);
  EXPECT_GE(pull.total_samples, 1536.0);
}

// CASP and R²SP are not on the round barrier, but they keep its parked
// rule: a worker held at a checkpoint cut stops gating its group's barrier
// and passes on R²SP's token. A crash-restart leaves the worker behind the
// pack (a batch behind after a pull, a restored replica behind the cut);
// once the pack parks, its rounds must not wait on a parked partner or
// for the token held at one, or the drain starves.
TEST(CheckpointRecovery, CrashRestartBehindTheCutRunsToPlan) {
  const auto make = [](int model) -> std::unique_ptr<runtime::SyncModel> {
    if (model == 0) return std::make_unique<sync::CaspSync>();
    return std::make_unique<sync::R2spSync>(/*overlap_pull=*/model == 1);
  };
  const char* const names[] = {"CASP", "R2SP duplex", "R2SP serial"};
  for (int model = 0; model < 3; ++model) {
    for (const bool restore : {false, true}) {
      for (int i = 1; i <= 24; ++i) {
        runtime::EngineConfig cfg = golden_config();
        cfg.max_virtual_time_s = 60.0;
        cfg.cluster.speed_factors = {1.0, 1.0, 0.5, 0.5};
        cfg.checkpoint.every_iters = 4;
        cfg.checkpoint.restore_crashed_from_checkpoint = restore;
        const double at = 0.05 * i;
        cfg.faults.crash_worker(at, 1, /*restart_after=*/0.1);
        const auto sync = make(model);
        const std::string where = std::string(names[model]) +
                                  (restore ? " restore" : " pull") + " at " +
                                  std::to_string(at);
        PlannedRun run;
        EXPECT_NO_THROW(run = run_to_plan(*sync, cfg)) << where;
        EXPECT_EQ(run.result.faults.worker_restarts, 1u) << where;
        EXPECT_TRUE(sync->drained()) << where;
      }
    }
  }
}

// Two workers crash 31 ms apart and restart 5 ms later, with a checkpoint
// every 2 or 5 iterations and 2 PS hosts. A worker that crashed at the
// cut restarts there and parks as soon as it computes again: while its
// restart pull or replica read is in flight it must not gate a trailing
// worker's round (every barrier owner and CASP), and a CASP member whose
// answer lands while its partner already pushed the next round re-checks
// the group when it parks. A CASP contributor that crashes and restarts
// while its group's PS apply is queued gets no answer from it in its new
// life (the case at 0.2018 s).
TEST(CheckpointRecovery, SecondCrashAtTheCutRunsToPlan) {
  const auto make = [](int model) -> std::unique_ptr<runtime::SyncModel> {
    switch (model) {
      case 0:
        return std::make_unique<sync::BspSync>();
      case 1: {
        core::OspOptions opt;
        opt.fixed_budget_fraction = 0.5;
        return std::make_unique<core::OspSync>(opt);
      }
      case 2:
        return std::make_unique<sync::KvBspSync>();
      case 3:
        return std::make_unique<sync::KvBspSync>(sync::sharded_bsp());
      default:
        return std::make_unique<sync::CaspSync>();
    }
  };
  const char* const names[] = {"BSP", "OSP", "KvBSP", "sharded", "CASP"};
  struct Case {
    int model;
    double at;  // first crash; the second hits the next worker 31 ms later
    std::size_t worker;
    std::size_t every;
    bool restore;
  };
  for (const Case& c : {Case{0, 0.621, 0, 2, false}, Case{0, 1.380, 0, 2, false},
                        Case{1, 0.207, 0, 2, false}, Case{1, 0.414, 0, 2, false},
                        Case{2, 0.690, 0, 2, false}, Case{2, 0.690, 1, 2, false},
                        Case{3, 0.207, 0, 2, false}, Case{3, 0.414, 0, 2, false},
                        Case{4, 0.345, 0, 2, false}, Case{4, 0.828, 1, 5, true},
                        Case{4, 0.2018, 1, 2, false}}) {
    runtime::EngineConfig cfg = golden_config();
    cfg.max_virtual_time_s = 60.0;
    cfg.cluster.num_ps = 2;
    if (c.model == 4) cfg.cluster.speed_factors = {1.0, 1.0, 0.5, 0.5};
    cfg.checkpoint.every_iters = c.every;
    cfg.checkpoint.restore_crashed_from_checkpoint = c.restore;
    cfg.faults.crash_worker(c.at, c.worker, /*restart_after=*/0.005)
        .crash_worker(c.at + 0.031, c.worker + 1, /*restart_after=*/0.005);
    const auto sync = make(c.model);
    const std::string where =
        std::string(names[c.model]) + " at " + std::to_string(c.at);
    PlannedRun run;
    EXPECT_NO_THROW(run = run_to_plan(*sync, cfg)) << where;
    EXPECT_EQ(run.result.faults.worker_restarts, 2u) << where;
  }
}

TEST(CheckpointRecovery, FallsBackToPullBeforeFirstCheckpoint) {
  runtime::EngineConfig cfg = golden_config();
  cfg.max_virtual_time_s = 60.0;
  cfg.checkpoint.every_iters = 8;  // first snapshot long after the crash
  cfg.checkpoint.restore_crashed_from_checkpoint = true;
  cfg.faults.crash_worker(0.2, 1, /*restart_after=*/0.1);
  sync::BspSync sync;
  const runtime::RunResult r = run_with(sync, cfg);
  EXPECT_EQ(r.faults.worker_restarts, 1u);
  EXPECT_EQ(r.faults.checkpoint_restores, 0u);  // nothing to restore yet
  EXPECT_GE(r.total_samples, 1536.0);
}

TEST(CheckpointRecovery, CrashDuringCheckpointReadVoidsTheRead) {
  // Worker 1 restarts at t = 1.0 and reads its replica back for 2 ms
  // (4 MB at 2 GB/s). It crashes again 1 ms into the read and restarts
  // 0.5 ms later, so the first read lands while it is alive again. That
  // read belongs to the crashed life: only the second may restore it, or
  // the worker would start computing twice.
  runtime::EngineConfig cfg = golden_config();
  cfg.max_virtual_time_s = 60.0;
  cfg.checkpoint.every_iters = 4;
  cfg.checkpoint.restore_crashed_from_checkpoint = true;
  cfg.faults.crash_worker(0.9, 1, /*restart_after=*/0.1)
      .crash_worker(1.001, 1, /*restart_after=*/0.0005);
  sync::BspSync sync;
  const PlannedRun r = run_to_plan(sync, cfg);
  EXPECT_EQ(r.result.faults.worker_crashes, 2u);
  EXPECT_EQ(r.result.faults.worker_restarts, 2u);
  EXPECT_EQ(r.result.faults.checkpoint_restores, 2u);
}

TEST(CheckpointRecovery, OspCrashRestoreCompletesIcs) {
  runtime::EngineConfig cfg = golden_config();
  cfg.max_virtual_time_s = 60.0;
  cfg.checkpoint.every_iters = 4;
  cfg.checkpoint.restore_crashed_from_checkpoint = true;
  cfg.faults.crash_worker(0.9, 3, /*restart_after=*/0.15);
  core::OspOptions opt;
  opt.fixed_budget_fraction = 0.5;
  core::OspSync sync(opt, {.rs_timeout_s = 0.5, .ics_timeout_s = 0.5});
  const runtime::RunResult r = run_with(sync, cfg);
  EXPECT_LT(r.total_time_s, 59.0) << "run did not converge (deadlock?)";
  EXPECT_EQ(r.faults.worker_restarts, 1u);
  EXPECT_EQ(r.faults.checkpoint_restores, 1u);
  EXPECT_EQ(sync.num_unhealthy(), 0u);
  EXPECT_GT(sync.ics_rounds_completed(), 0u);
  EXPECT_GE(r.total_samples, 1536.0);
  EXPECT_LE(r.total_samples, 1536.0 + 32.0);
}

TEST(CheckpointRecovery, OspStaleRsAnswerDoesNotReleaseEarly) {
  // A 50 ms window delays every message by 0.2 s around worker 0's crash:
  // RS answers of an older round land on workers that a deadline close and
  // a catch-up already moved on. Counted against the current round, they
  // released the workers early and the watchdog's catch-up again, so the
  // workers ran 25 of 24 iterations.
  for (const double at : {1.165, 1.170, 1.250, 1.260}) {
    runtime::EngineConfig cfg = golden_config();
    cfg.max_virtual_time_s = 60.0;
    cfg.cluster.num_ps = 2;
    cfg.checkpoint.every_iters = 5;
    cfg.faults.crash_worker(1.173, 0, /*restart_after=*/0.05)
        .delay_messages(at, 0.05, /*delay_s=*/0.2);
    core::OspOptions opt;
    opt.fixed_budget_fraction = 0.5;
    core::OspSync sync(opt, {.rs_timeout_s = 0.1, .ics_timeout_s = 0.1});
    const runtime::WorkloadSpec spec = models::tiny_mlp();
    runtime::Engine engine(spec, cfg, sync);
    EXPECT_NO_THROW(engine.run()) << "delay window at " << at;
    const std::size_t planned = cfg.max_epochs * engine.batches_per_epoch();
    for (std::size_t w = 0; w < cfg.num_workers; ++w) {
      EXPECT_EQ(engine.worker_iteration(w), planned)
          << "delay window at " << at << ": worker " << w;
    }
  }
}

// ---- pauses ----

TEST(Pauses, PauseStretchesRoundButLosesNothing) {
  runtime::EngineConfig cfg = golden_config();
  cfg.faults.pause_worker(0.2, 0, 0.4);
  sync::BspSync sync;
  const runtime::RunResult r = run_with(sync, cfg);
  EXPECT_EQ(r.faults.worker_pauses, 1u);
  EXPECT_NEAR(r.faults.worker_downtime_s, 0.4, 1e-12);
  // BSP: everybody waits for the paused worker, so the run stretches by
  // roughly the pause length relative to the golden 1.5215 s.
  EXPECT_GT(r.total_time_s, 1.8);
  EXPECT_DOUBLE_EQ(r.total_samples, 1536.0);
}

}  // namespace
}  // namespace osp
