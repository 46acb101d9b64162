// PS-shard replication suite: ShardSession unit coverage (chains,
// version-predicate freshness, catch-up, repoint hooks, serde), the
// consistent-hash successor rule, and the chaos family — PS crashes
// injected mid-RS, mid-ICS, during catch-up and with a whole chain down,
// against the real Engine, asserting the crashed primary's key range is
// promoted onto its backup, no update is double-applied, no queued answer
// is lost, and seeded replays stay bit-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <utility>

#include "core/osp_sync.hpp"
#include "kv/partition.hpp"
#include "kv/shard_session.hpp"
#include "kv/store.hpp"
#include "models/zoo.hpp"
#include "runtime/engine.hpp"
#include "sim/cluster.hpp"
#include "sync/bsp.hpp"
#include "sync/kv_bsp.hpp"
#include "sync/round_barrier.hpp"
#include "util/check.hpp"
#include "util/serde.hpp"

namespace osp {
namespace {

// ---- consistent-hash successor rule ----

TEST(ConsistentHashSuccessor, DistinctDeterministicInRange) {
  for (std::size_t shards : {2u, 3u, 5u, 8u}) {
    kv::ConsistentHashRing a(shards), b(shards);
    for (std::size_t p = 0; p < shards; ++p) {
      const std::size_t s = a.successor(p);
      EXPECT_LT(s, shards);
      EXPECT_NE(s, p) << "backup must land on a different host";
      EXPECT_EQ(s, b.successor(p)) << "successor must be deterministic";
    }
  }
}

TEST(ConsistentHashSuccessor, SingleShardIsItsOwnSuccessor) {
  kv::ConsistentHashRing ring(1);
  EXPECT_EQ(ring.successor(0), 0u);
}

// ---- stamp_versions range guard (the wire-path twin of the replica
// predicate: a listed key outside the message's declared range would
// stamp a version for a segment the receiver cannot locate) ----

TEST(KvStoreGuard, StampVersionsRejectsListedKeyOutsideRange) {
  kv::KvStore store;
  store.init(std::vector<std::size_t>{0, 4, 8},
             std::vector<std::size_t>{4, 4, 4});
  kv::KvMessage m;
  m.range = {0, 2};
  m.keys = {2};  // in-store, but outside the declared range
  EXPECT_THROW(store.stamp_versions(m), util::CheckError);

  m.range = {0, 2};
  m.keys = {0, 1};
  store.stamp_versions(m);  // in-range listed keys are fine
  EXPECT_EQ(m.versions.size(), 2u);

  kv::KvMessage shard_msg;  // empty range + explicit keys: shard style
  shard_msg.keys = {2, 0};
  store.stamp_versions(shard_msg);
  EXPECT_EQ(shard_msg.versions.size(), 2u);
}

// ---- chaos family: PS crashes against the real Engine ----

runtime::EngineConfig chaos_config(std::size_t num_ps) {
  runtime::EngineConfig cfg;
  cfg.num_workers = 4;
  cfg.max_epochs = 3;
  cfg.seed = 42;
  cfg.straggler_jitter = 0.1;
  cfg.cluster.num_ps = num_ps;
  cfg.record_telemetry = true;    // the suite asserts per-round replica
                                  // lag / promotion counters
  cfg.max_virtual_time_s = 60.0;  // backstop: a deadlock shows as a stall
  return cfg;
}

runtime::RunResult run_with(runtime::SyncModel& sync,
                            const runtime::EngineConfig& cfg) {
  const runtime::WorkloadSpec spec = models::tiny_mlp();
  runtime::Engine engine(spec, cfg, sync);
  return engine.run();
}

std::size_t total_promotions(const runtime::RunResult& r) {
  std::size_t n = 0;
  for (const runtime::SyncTelemetry& t : r.rounds) n += t.promotions;
  return n;
}

// ---- ShardSession: placement, version-predicate catch-up, repoint order.
// The session runs over an engine that is never run (its blocks are the
// keys); each test drives applies and PS crashes/restarts by hand. ----

struct SessionHarness {
  runtime::WorkloadSpec spec = models::tiny_mlp();
  sync::BspSync model;  // the engine needs one; the session stands alone
  runtime::Engine engine;
  kv::ShardSession session;
  std::vector<std::string> calls;  // hook log, in call order

  explicit SessionHarness(std::size_t num_ps)
      : engine(spec, config(num_ps), model) {}

  /// PS work at 1000 B/s, so queue charges read as round numbers.
  static runtime::EngineConfig config(std::size_t num_ps) {
    runtime::EngineConfig cfg = chaos_config(num_ps);
    cfg.cluster.ps_apply_bytes_per_s = 1000.0;
    return cfg;
  }

  /// Key k on shard k % hosts, priced 100·(k+1) bytes.
  void init(std::size_t hosts, std::size_t shards) {
    kv::Partition part;
    part.num_shards = hosts;
    std::vector<double> key_bytes;
    for (std::size_t k = 0; k < engine.num_blocks(); ++k) {
      part.owner.push_back(k % hosts);
      key_bytes.push_back(100.0 * static_cast<double>(k + 1));
    }
    auto log = [this](const char* what) {
      return [this, what](std::size_t s) {
        calls.push_back(what + std::to_string(s));
      };
    };
    session.init(engine, part, key_bytes, shards,
                 {.collecting_round = [](std::size_t) { return 1; },
                  .deposed = log("deposed "),
                  .repush = log("repush ")});
  }
  [[nodiscard]] double shipped() const {
    return engine.fault_stats().replica_catchup_bytes;
  }
  void apply(std::initializer_list<std::size_t> keys) {
    std::vector<bool> mask(engine.num_blocks(), false);
    for (std::size_t k : keys) mask[k] = true;
    session.applied(mask);
  }
  /// Queue a 100-byte answer (0.3 s of PS work) that logs (host, time).
  void answer(std::size_t shard) {
    session.answer(shard, 100.0, [this](std::size_t host) {
      answered.emplace_back(host, engine.sim().now());
    });
  }
  std::vector<std::pair<std::size_t, double>> answered;
};

TEST(ShardSession, EveryShardPromotesToItsRingSuccessor) {
  const kv::ConsistentHashRing ring(3);
  for (std::size_t s = 0; s < 3; ++s) {
    SessionHarness h(3);
    h.init(3, 3);
    const std::size_t backup = ring.successor(s);
    ASSERT_NE(backup, s) << "the backup is not the primary";
    h.session.on_ps_crashed(s);
    EXPECT_EQ(h.session.serving(s), backup) << "shard " << s;
    for (std::size_t o = 0; o < 3; ++o) {
      if (o != s) {
        EXPECT_EQ(h.session.serving(o), o) << "shard " << o;
      }
    }
  }
}

TEST(ShardSession, ChainsPromoteAndFailBack) {
  SessionHarness h(3);
  ASSERT_GE(h.engine.num_blocks(), 3u);
  h.init(3, 3);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(h.session.serving(s), s) << "healthy: the primary serves";
  }
  const std::size_t backup = kv::ConsistentHashRing(3).successor(0);
  h.session.on_ps_crashed(0);
  EXPECT_EQ(h.session.serving(0), backup) << "promotion to the successor";
  EXPECT_EQ(h.calls, (std::vector<std::string>{"deposed 0", "repush 0"}));
  h.calls.clear();
  h.session.on_ps_crashed(backup);
  EXPECT_EQ(h.session.serving(0), kv::ShardSession::npos)
      << "whole chain down";
  // The deposed hook runs, the repush waits for a restart.
  EXPECT_EQ(std::count(h.calls.begin(), h.calls.end(), "deposed 0"), 1);
  EXPECT_EQ(std::count(h.calls.begin(), h.calls.end(), "repush 0"), 0);
  h.calls.clear();
  h.session.on_ps_restarted(0);
  EXPECT_EQ(h.session.serving(0), 0u) << "failback to the restarted primary";
  EXPECT_EQ(std::count(h.calls.begin(), h.calls.end(), "repush 0"), 1);
}

TEST(ShardSession, SingleHostHasNoBackup) {
  SessionHarness h(1);
  h.init(1, 1);
  h.session.on_ps_crashed(0);
  EXPECT_EQ(h.session.serving(0), kv::ShardSession::npos);
  EXPECT_EQ(h.calls, (std::vector<std::string>{"deposed 0"}));
  EXPECT_EQ(h.engine.fault_stats().ps_promotions, 0u);
  h.session.on_ps_restarted(0);
  EXPECT_EQ(h.session.serving(0), 0u);
  EXPECT_EQ(h.calls, (std::vector<std::string>{"deposed 0", "deposed 0",
                                               "repush 0"}));
  EXPECT_EQ(h.engine.fault_stats().ps_promotions, 1u);
}

TEST(ShardSession, VersionPredicateCatchUp) {
  SessionHarness h(3);
  h.init(3, 3);
  EXPECT_EQ(h.session.lag(), 0u) << "untouched store: every backup fresh";
  // An apply bumps key 1 to v1; replication trails by one update, so the
  // backup is known-good only up to v0 — exactly key 1 is stale.
  h.apply({1});
  EXPECT_EQ(h.session.lag(), 1u);
  // Shard 0 (keys 0, 3, ...) has nothing stale: its promotion and its
  // failback ship 0.
  h.session.on_ps_crashed(0);
  h.session.on_ps_restarted(0);
  EXPECT_EQ(h.engine.fault_stats().ps_promotions, 2u);
  EXPECT_DOUBLE_EQ(h.shipped(), 0.0);
  // Shard 1's promotion ships exactly key 1 and marks it fresh.
  h.session.on_ps_crashed(1);
  EXPECT_DOUBLE_EQ(h.shipped(), 200.0);
  EXPECT_EQ(h.session.lag(), 0u);
  EXPECT_EQ(h.session.store().version(1), 1u);
}

TEST(ShardSession, CatchUpSumsEveryStaleKeyOfTheShard) {
  SessionHarness h(2);
  ASSERT_GE(h.engine.num_blocks(), 3u);
  h.init(2, 2);
  h.apply({0, 2});  // both on shard 0
  EXPECT_EQ(h.session.lag(), 2u);
  h.session.on_ps_crashed(0);
  EXPECT_DOUBLE_EQ(h.shipped(), 100.0 + 300.0);
  EXPECT_EQ(h.session.lag(), 0u);
}

TEST(ShardSession, RepeatedUpdatesNeedOneCatchUp) {
  SessionHarness h(2);
  h.init(2, 2);
  for (int i = 0; i < 5; ++i) h.apply({0});
  // Five applies, but the version predicate selects the key once.
  EXPECT_EQ(h.session.lag(), 1u);
  h.session.on_ps_crashed(0);
  EXPECT_DOUBLE_EQ(h.shipped(), 100.0);
  EXPECT_EQ(h.session.lag(), 0u);
}

TEST(ShardSession, CatchUpIsChargedOnTheNewHostQueue) {
  SessionHarness h(2);
  h.init(2, 2);
  h.apply({0});                // key 0 (shard 0): the backup is stale
  h.session.on_ps_crashed(0);  // promote host 1, ship key 0's 100 bytes
  EXPECT_DOUBLE_EQ(h.shipped(), 100.0);
  h.answer(0);
  h.engine.sim().run();
  // The answer queues behind the 0.1 s catch-up apply on host 1.
  ASSERT_EQ(h.answered.size(), 1u);
  EXPECT_EQ(h.answered[0].first, 1u);
  EXPECT_NEAR(h.answered[0].second, 0.1 + 0.3, 1e-12);
}

TEST(ShardSession, AnswerStaysOnItsLiveHostAtFailback) {
  SessionHarness h(2);
  h.init(2, 2);
  h.session.on_ps_crashed(0);  // shard 0 → host 1; nothing stale
  h.answer(0);                 // queued on host 1
  h.session.on_ps_restarted(0);
  EXPECT_EQ(h.session.serving(0), 0u);
  h.engine.sim().run();
  // Failback away from a live host leaves its queued answer alone.
  ASSERT_EQ(h.answered.size(), 1u);
  EXPECT_EQ(h.answered[0].first, 1u);
  EXPECT_NEAR(h.answered[0].second, 0.3, 1e-12);
}

TEST(ShardSession, SaveLoadRoundTrip) {
  SessionHarness a(3);
  a.init(3, 3);
  a.session.on_ps_crashed(1);  // nothing stale yet: ships 0 bytes
  a.apply({2});
  util::serde::Writer w;
  a.session.save_state(w);

  SessionHarness b(3);
  b.init(3, 3);
  util::serde::Reader r(w.data());
  b.session.load_state(r);
  EXPECT_EQ(b.session.lag(), 1u);
  EXPECT_EQ(b.session.store().version(2), 1u);
  // The restored liveness, serving hosts and backup versions drive the
  // same repoints and the same catch-up.
  a.session.on_ps_crashed(2);
  b.session.on_ps_crashed(2);
  EXPECT_DOUBLE_EQ(b.shipped(), a.shipped());
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(b.session.serving(s), a.session.serving(s));
  }
}

// ---- RoundBarrier: every answer carries the round it answers. Driven by
// hand over an engine that is never run, like the ShardSession cases. ----

struct BarrierHarness : sync::RoundBarrier::Owner {
  runtime::WorkloadSpec spec = models::tiny_mlp();
  sync::BspSync model;  // the engine needs one; the barrier stands alone
  runtime::Engine engine{spec, chaos_config(1), model};
  sync::RoundBarrier barrier;
  std::vector<std::pair<std::size_t, std::uint64_t>> pulls;  // (w, round)

  BarrierHarness() { barrier.attach(engine, 0.0, *this); }

  void round_closed(std::uint64_t, std::size_t) override {}
  bool catch_up(std::size_t w, std::uint64_t round) override {
    pulls.emplace_back(w, round);
    return true;
  }
  void step_round(std::uint64_t, const std::vector<bool>&) override {}

  /// Workers 1..3 take round `answered`'s answer, then push and land the
  /// collecting round.
  void others_run_a_round(std::uint64_t answered) {
    for (std::size_t w = 1; w < 4; ++w) {
      EXPECT_TRUE(barrier.settle(w, answered));
      barrier.push(w, barrier.collecting(), [](std::uint64_t) {});
    }
    for (std::size_t w = 1; w < 4; ++w) barrier.contribute(w);
  }
};

TEST(RoundBarrier, StaleCatchUpDoesNotResumeAPusher) {
  BarrierHarness h;
  ASSERT_EQ(h.engine.num_workers(), 4u);
  for (std::size_t w = 0; w < 4; ++w) {
    h.barrier.push(w, h.barrier.collecting(), [](std::uint64_t) {});
    h.barrier.contribute(w);
  }
  ASSERT_EQ(h.barrier.rounds_closed(), 1u);
  // Worker 0's round-1 answer is lost, so it is stuck: rounds 2 and 3
  // close without it, and each close sends it a catch-up pull.
  h.others_run_a_round(1);
  h.others_run_a_round(2);
  ASSERT_EQ(h.barrier.rounds_closed(), 3u);
  using Pulls = std::vector<std::pair<std::size_t, std::uint64_t>>;
  ASSERT_EQ(h.pulls, (Pulls{{0, 2}, {0, 3}}));
  // The first pull lands: worker 0 resumes and pushes to round 4.
  EXPECT_TRUE(h.barrier.settle(0, 2));
  h.barrier.push(0, h.barrier.collecting(), [](std::uint64_t) {});
  EXPECT_EQ(h.barrier.awaiting_round(0), 4u);
  // The second pull predates that push; it must not resume worker 0 while
  // the push is in flight.
  EXPECT_FALSE(h.barrier.settle(0, 3));
  EXPECT_TRUE(h.barrier.awaiting(0));
  // Round 4's own answer does, once.
  h.others_run_a_round(3);
  h.barrier.contribute(0);
  ASSERT_EQ(h.barrier.rounds_closed(), 4u);
  EXPECT_TRUE(h.barrier.settle(0, 4));
  EXPECT_FALSE(h.barrier.settle(0, 4)) << "a duplicate answer";
  EXPECT_EQ(h.pulls.size(), 2u);
}

TEST(PsFailover, ShardedBspCrashMidRoundPromotesBackup) {
  runtime::EngineConfig cfg = chaos_config(/*num_ps=*/2);
  cfg.faults.crash_ps(0.3, /*ps=*/0);  // permanent
  sync::KvBspSync sync(sync::sharded_bsp());
  const runtime::RunResult r = run_with(sync, cfg);
  EXPECT_LT(r.total_time_s, 59.0) << "run did not converge (deadlock?)";
  EXPECT_EQ(r.faults.ps_crashes, 1u);
  EXPECT_EQ(r.faults.ps_restarts, 0u);
  EXPECT_GE(r.faults.ps_promotions, 1u);
  EXPECT_EQ(total_promotions(r), r.faults.ps_promotions)
      << "telemetry and FaultStats must agree on promotions";
  // Every shard is now served by the surviving host.
  for (std::size_t p = 0; p < 2; ++p) EXPECT_EQ(sync.serving_host(p), 1u);
  // No worker died: every sample is still processed exactly once.
  EXPECT_DOUBLE_EQ(r.total_samples, 1536.0);
  EXPECT_TRUE(std::isfinite(r.final_loss));
}

TEST(PsFailover, KvBspCrashThenRestartFailsBack) {
  // Every one-shard configuration of the KV-core BSP shares the failover
  // path: the compression baselines survive the crash like plain KvBSP.
  const sync::KvBspOptions configs[] = {
      sync::KvBspOptions{},
      sync::compressed_bsp(kv::CompressionMode::TopK, 0.25, /*seed=*/99,
                           /*error_feedback=*/true),
      sync::compressed_bsp(kv::CompressionMode::RandomK, 0.25),
      sync::quantized_bsp(),
  };
  for (const sync::KvBspOptions& opt : configs) {
    sync::KvBspSync sync(opt);
    SCOPED_TRACE(sync.name());
    runtime::EngineConfig cfg = chaos_config(/*num_ps=*/2);
    cfg.faults.crash_ps(0.3, /*ps=*/0, /*restart_after=*/0.3);
    const runtime::RunResult r = run_with(sync, cfg);
    EXPECT_LT(r.total_time_s, 59.0);
    EXPECT_EQ(r.faults.ps_crashes, 1u);
    EXPECT_EQ(r.faults.ps_restarts, 1u);
    // Promotion onto the backup at the crash, failback at the restart.
    EXPECT_GE(r.faults.ps_promotions, 2u);
    EXPECT_EQ(sync.serving_host(), 0u) << "failback to the restarted primary";
    EXPECT_DOUBLE_EQ(r.total_samples, 1536.0);
    EXPECT_TRUE(std::isfinite(r.final_loss));
  }
}

TEST(PsFailover, OspCrashMidRsPromotesAndDegradesToAllImportant) {
  runtime::EngineConfig cfg = chaos_config(/*num_ps=*/2);
  cfg.faults.crash_ps(0.25, /*ps=*/0);  // permanent, lands mid-RS
  core::OspOptions opt;
  opt.fixed_budget_fraction = 0.5;  // keep ICS rounds in flight
  core::OspSync sync(opt, {.rs_timeout_s = 0.3, .ics_timeout_s = 0.3});
  const runtime::RunResult r = run_with(sync, cfg);
  EXPECT_LT(r.total_time_s, 59.0) << "run did not converge (deadlock?)";
  EXPECT_EQ(r.faults.ps_crashes, 1u);
  EXPECT_GE(r.faults.ps_promotions, 1u);
  for (std::size_t p = 0; p < 2; ++p) EXPECT_EQ(sync.serving_host(p), 1u);
  // §4.3 degradation extends to PS faults: with a shard down the GIB
  // collapses to all-important, so nothing rides the (riskier) ICS.
  EXPECT_EQ(sync.current_gib().count_unimportant(), 0u);
  EXPECT_DOUBLE_EQ(r.total_samples, 1536.0);
  EXPECT_TRUE(std::isfinite(r.final_loss));
}

TEST(PsFailover, OspCrashDuringCatchUpSurvivesSecondFailure) {
  runtime::EngineConfig cfg = chaos_config(/*num_ps=*/2);
  // Crash, restart (failback runs a catch-up whose apply delay is still
  // queued), then crash again while that catch-up may be in flight.
  cfg.faults.crash_ps(0.3, /*ps=*/0, /*restart_after=*/0.15)
      .crash_ps(0.47, /*ps=*/0);  // permanent second failure
  core::OspOptions opt;
  opt.fixed_budget_fraction = 0.5;
  core::OspSync sync(opt, {.rs_timeout_s = 0.3, .ics_timeout_s = 0.3});
  const runtime::RunResult r = run_with(sync, cfg);
  EXPECT_LT(r.total_time_s, 59.0) << "run did not converge (deadlock?)";
  EXPECT_EQ(r.faults.ps_crashes, 2u);
  EXPECT_EQ(r.faults.ps_restarts, 1u);
  EXPECT_GE(r.faults.ps_promotions, 2u);
  for (std::size_t p = 0; p < 2; ++p) EXPECT_EQ(sync.serving_host(p), 1u);
  EXPECT_DOUBLE_EQ(r.total_samples, 1536.0);
  EXPECT_TRUE(std::isfinite(r.final_loss));
}

TEST(PsFailover, WholeChainDownSkipsThenFailsBack) {
  // Shard 0's primary (host 0) crashes, then its backup (host 1): the whole
  // chain is down for 0.1 s. Pushes and answers addressed to it wait for
  // host 1's restart, which promotes it; host 0's restart fails back.
  auto check = [](auto& sync, std::size_t promotions, std::size_t shards) {
    SCOPED_TRACE(sync.name());
    runtime::EngineConfig cfg = chaos_config(/*num_ps=*/2);
    cfg.faults.crash_ps(0.3, /*ps=*/0, /*restart_after=*/0.3)
        .crash_ps(0.35, /*ps=*/1, /*restart_after=*/0.1);
    const runtime::RunResult r = run_with(sync, cfg);
    EXPECT_LT(r.total_time_s, 59.0) << "run did not converge (deadlock?)";
    EXPECT_DOUBLE_EQ(r.total_samples, 1536.0);
    EXPECT_TRUE(sync.drained());
    EXPECT_EQ(r.faults.ps_crashes, 2u);
    EXPECT_EQ(r.faults.ps_restarts, 2u);
    EXPECT_EQ(r.faults.ps_promotions, promotions);
    EXPECT_EQ(total_promotions(r), r.faults.ps_promotions)
        << "telemetry and FaultStats must agree on promotions";
    for (std::size_t s = 0; s < shards; ++s) {
      EXPECT_EQ(sync.serving_host(s), s) << "failback to the primary";
    }
    EXPECT_TRUE(std::isfinite(r.final_loss));
  };
  sync::KvBspSync kvbsp;
  check(kvbsp, /*promotions=*/3, /*shards=*/1);
  sync::KvBspSync sharded(sync::sharded_bsp());
  check(sharded, /*promotions=*/4, /*shards=*/2);
  core::OspOptions opt;
  opt.fixed_budget_fraction = 0.5;
  core::OspSync osp(opt, {.rs_timeout_s = 0.3, .ics_timeout_s = 0.3});
  check(osp, /*promotions=*/4, /*shards=*/2);
}

TEST(PsFailover, IcsShardWithItsChainDownWaitsForTheRestart) {
  // One PS host, so shard 0's chain is that host alone. Worker 3's slowed
  // uplink holds back its ICS push of the round in flight; the host
  // crashes after the other members' pushes landed, then worker 3
  // crashes. The shard's remaining members are complete, but no host can
  // step it: it waits for the restart's repush, which re-collects it.
  runtime::EngineConfig cfg = chaos_config(/*num_ps=*/1);
  sim::LinkId worker3_up = 0;
  {
    sim::Simulator s;
    runtime::EngineConfig c = cfg;
    c.cluster.num_workers = c.num_workers;
    worker3_up = sim::Cluster(s, c.cluster).worker_uplink(3);
  }
  cfg.faults.degrade_link(0.25, worker3_up, 0.1, 0.2)
      .crash_ps(0.333, /*ps=*/0, /*restart_after=*/0.2)
      .crash_worker(0.3332, /*worker=*/3, /*restart_after=*/0.3);
  core::OspOptions opt;
  opt.fixed_budget_fraction = 0.5;
  core::OspSync sync(opt, {.rs_timeout_s = 0.3, .ics_timeout_s = 0.3});
  const runtime::RunResult r = run_with(sync, cfg);
  EXPECT_LT(r.total_time_s, 59.0) << "run did not converge (deadlock?)";
  EXPECT_TRUE(sync.drained());
  EXPECT_EQ(r.faults.ps_crashes, 1u);
  EXPECT_EQ(r.faults.worker_crashes, 1u);
  EXPECT_EQ(r.faults.ics_rounds_abandoned, 0u)
      << "the restart's repush closes the waiting round in time";
  EXPECT_EQ(sync.serving_host(0), 0u);
  EXPECT_TRUE(std::isfinite(r.final_loss));
}

TEST(PsFailover, AnswerQueuedOnACrashedHostIsReDriven) {
  // A broadcast queued on host 1 dies with it. (a) Shard 0's whole chain
  // is down, and host 1 is back before host 0: the restart that promotes
  // it must re-submit the broadcast, although host 1 is alive again.
  // (b) Shard 0 failed back to host 0 while its broadcast was still queued
  // on host 1, which then crashes: shard 0 is not repointed, yet the
  // broadcast must be re-driven on host 0.
  for (const bool failback_first : {false, true}) {
    SCOPED_TRACE(failback_first ? "failback, then crash" : "chain down");
    runtime::EngineConfig cfg = chaos_config(/*num_ps=*/2);
    if (failback_first) {
      cfg.faults.crash_ps(0.3, /*ps=*/0, /*restart_after=*/0.195)
          .crash_ps(0.497, /*ps=*/1, /*restart_after=*/0.1);
    } else {
      cfg.faults.crash_ps(0.3, /*ps=*/0, /*restart_after=*/0.3)
          .crash_ps(0.32, /*ps=*/1, /*restart_after=*/0.1);
    }
    sync::KvBspSync sync(sync::sharded_bsp());
    const runtime::RunResult r = run_with(sync, cfg);
    EXPECT_LT(r.total_time_s, 59.0) << "run did not converge (deadlock?)";
    EXPECT_DOUBLE_EQ(r.total_samples, 1536.0);
    EXPECT_TRUE(sync.drained());
    for (std::size_t s = 0; s < 2; ++s) EXPECT_EQ(sync.serving_host(s), s);
  }
}

TEST(PsFailover, SeededPsChaosIsBitDeterministic) {
  auto chaotic_run = [] {
    runtime::EngineConfig cfg = chaos_config(/*num_ps=*/2);
    cfg.faults.set_seed(7)
        .crash_ps(0.3, 0, /*restart_after=*/0.2)
        .crash_worker(0.5, 2, /*restart_after=*/0.25)
        .drop_messages(0.8, 0.15, 0.5);
    core::OspSync sync({}, {.rs_timeout_s = 0.3, .ics_timeout_s = 0.3});
    return run_with(sync, cfg);
  };
  const runtime::RunResult a = chaotic_run();
  const runtime::RunResult b = chaotic_run();
  EXPECT_DOUBLE_EQ(a.total_time_s, b.total_time_s);
  EXPECT_DOUBLE_EQ(a.total_samples, b.total_samples);
  EXPECT_DOUBLE_EQ(a.final_loss, b.final_loss);
  EXPECT_EQ(a.faults.ps_crashes, b.faults.ps_crashes);
  EXPECT_EQ(a.faults.ps_restarts, b.faults.ps_restarts);
  EXPECT_EQ(a.faults.ps_promotions, b.faults.ps_promotions);
  EXPECT_DOUBLE_EQ(a.faults.replica_catchup_bytes,
                   b.faults.replica_catchup_bytes);
  EXPECT_EQ(a.rounds.size(), b.rounds.size());
  EXPECT_EQ(total_promotions(a), total_promotions(b));
  EXPECT_TRUE(a.faults.any());
}

TEST(PsFailover, EmptyScheduleReportsNoReplicationActivity) {
  // The bit-identity of the healthy path is pinned by the sync goldens;
  // here we assert the replication layer's *observable* silence: no
  // promotions, no catch-up traffic, no PS fault counts.
  runtime::EngineConfig cfg = chaos_config(/*num_ps=*/2);
  cfg.max_virtual_time_s = 0.0;
  sync::KvBspSync sync(sync::sharded_bsp());
  const runtime::RunResult r = run_with(sync, cfg);
  EXPECT_FALSE(r.faults.any());
  EXPECT_EQ(r.faults.ps_crashes, 0u);
  EXPECT_EQ(r.faults.ps_promotions, 0u);
  EXPECT_DOUBLE_EQ(r.faults.replica_catchup_bytes, 0.0);
  EXPECT_EQ(total_promotions(r), 0u);
  for (const runtime::SyncTelemetry& t : r.rounds) {
    EXPECT_DOUBLE_EQ(t.catch_up_bytes, 0.0);
  }
  for (std::size_t p = 0; p < 2; ++p) EXPECT_EQ(sync.serving_host(p), p);
}

// ---- zero-contributor round closure (the weight-renormalization guard):
// a deadline that fires with every push dropped must close the round as a
// no-op, not divide by a zero weight sum ----

TEST(ZeroContributorRound, TimeoutWithAllPushesDroppedIsNoOp) {
  runtime::EngineConfig cfg = chaos_config(/*num_ps=*/1);
  cfg.max_virtual_time_s = 5.0;
  // Every message in the first two virtual seconds vanishes: rounds can
  // only close by deadline, with zero contributors.
  cfg.faults.drop_messages(0.0, 2.0, 1.0);
  sync::BspSync sync;
  sync.set_timeouts({.rs_timeout_s = 0.1});
  const runtime::RunResult r = run_with(sync, cfg);
  EXPECT_GE(r.faults.timed_out_rounds, 1u);
  EXPECT_GT(r.faults.messages_dropped, 0u);
  EXPECT_TRUE(std::isfinite(r.final_loss));
}

}  // namespace
}  // namespace osp
