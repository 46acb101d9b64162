// PS-shard replication suite: ReplicaTable unit coverage (chains,
// version-predicate freshness, catch-up, serde), the consistent-hash
// successor rule, and the chaos family — PS crashes injected mid-RS,
// mid-ICS and during catch-up against the real Engine, asserting the
// crashed primary's key range is promoted onto its backup, no update is
// double-applied, and seeded replays stay bit-identical.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/osp_sync.hpp"
#include "kv/partition.hpp"
#include "kv/replication.hpp"
#include "kv/store.hpp"
#include "models/zoo.hpp"
#include "runtime/engine.hpp"
#include "sync/bsp.hpp"
#include "sync/kv_bsp.hpp"
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

// ---- ReplicaTable ----

kv::Partition three_shard_partition() {
  kv::Partition part;
  part.num_shards = 3;
  part.owner = {0, 1, 2, 0};  // key 3 doubles up on shard 0
  return part;
}

TEST(ReplicaTable, ChainsPromoteAndFailBack) {
  const std::vector<double> key_bytes = {100.0, 200.0, 300.0, 400.0};
  kv::ReplicaTable t;
  t.init(three_shard_partition(), key_bytes);
  ASSERT_EQ(t.num_hosts(), 3u);
  for (std::size_t p = 0; p < 3; ++p) {
    ASSERT_EQ(t.chain(p).size(), 2u);
    EXPECT_EQ(t.chain(p).front(), p) << "shard p is primary on host p";
    EXPECT_NE(t.chain(p)[1], p);
    EXPECT_TRUE(t.has_backup(p));
    EXPECT_EQ(t.serving(p), p) << "healthy: the primary serves";
  }
  const std::size_t backup = t.chain(0)[1];
  t.set_alive(0, false);
  EXPECT_EQ(t.serving(0), backup) << "promotion to the chain successor";
  t.set_alive(backup, false);
  EXPECT_EQ(t.serving(0), kv::ReplicaTable::npos) << "whole chain down";
  t.set_alive(0, true);
  EXPECT_EQ(t.serving(0), 0u) << "failback to the restarted primary";
}

TEST(ReplicaTable, SingleHostHasNoBackup) {
  kv::Partition part;
  part.num_shards = 1;
  part.owner = {0, 0};
  kv::ReplicaTable t;
  t.init(part, std::vector<double>{8.0, 8.0});
  EXPECT_FALSE(t.has_backup(0));
  ASSERT_EQ(t.chain(0).size(), 1u);
  t.set_alive(0, false);
  EXPECT_EQ(t.serving(0), kv::ReplicaTable::npos);
}

TEST(ReplicaTable, VersionPredicateFreshnessAndCatchUp) {
  const std::vector<double> key_bytes = {100.0, 200.0, 300.0, 400.0};
  kv::ReplicaTable t;
  t.init(three_shard_partition(), key_bytes);
  kv::KvStore store;
  const std::vector<std::size_t> offsets = {0, 25, 75, 150};
  const std::vector<std::size_t> numels = {25, 50, 75, 100};
  store.init(offsets, numels);

  // Untouched store: every backup matches version 0.
  for (kv::Key k = 0; k < 4; ++k) EXPECT_TRUE(t.fresh(k, store));
  EXPECT_EQ(t.lag(store), 0u);

  // An apply bumps key 1 to v1; the async stream trails by one update, so
  // the backup is known-good only up to v0 — exactly key 1 is stale.
  store.bump(1);
  t.note_update(1, store.version(1));
  EXPECT_FALSE(t.fresh(1, store));
  EXPECT_TRUE(t.fresh(0, store));
  EXPECT_EQ(t.lag(store), 1u);
  EXPECT_DOUBLE_EQ(t.stale_bytes(1, store), 200.0);
  EXPECT_DOUBLE_EQ(t.stale_bytes(0, store), 0.0);

  // Catch-up ships only the stale segment and marks it fresh.
  EXPECT_DOUBLE_EQ(t.catch_up(1, store), 200.0);
  EXPECT_TRUE(t.fresh(1, store));
  EXPECT_EQ(t.lag(store), 0u);
  EXPECT_DOUBLE_EQ(t.catch_up(1, store), 0.0) << "nothing left to ship";

  // Shard 0 owns keys 0 and 3; staleness accumulates per shard.
  store.bump(0);
  t.note_update(0, store.version(0));
  store.bump(3);
  t.note_update(3, store.version(3));
  EXPECT_EQ(t.lag(store), 2u);
  EXPECT_DOUBLE_EQ(t.stale_bytes(0, store), 100.0 + 400.0);
  EXPECT_DOUBLE_EQ(t.catch_up(0, store), 100.0 + 400.0);
  EXPECT_EQ(t.lag(store), 0u);
}

TEST(ReplicaTable, RepeatedUpdatesNeedOneCatchUp) {
  kv::Partition part;
  part.num_shards = 2;
  part.owner = {0, 1};
  kv::ReplicaTable t;
  t.init(part, std::vector<double>{64.0, 64.0});
  kv::KvStore store;
  store.init(std::vector<std::size_t>{0, 16},
             std::vector<std::size_t>{16, 16});
  for (int i = 0; i < 5; ++i) {
    store.bump(0);
    t.note_update(0, store.version(0));
  }
  // Five applies, but the version predicate selects the segment once.
  EXPECT_EQ(t.lag(store), 1u);
  EXPECT_DOUBLE_EQ(t.catch_up(0, store), 64.0);
  EXPECT_EQ(t.lag(store), 0u);
}

TEST(ReplicaTable, SaveLoadRoundTrip) {
  const std::vector<double> key_bytes = {100.0, 200.0, 300.0, 400.0};
  kv::ReplicaTable a;
  a.init(three_shard_partition(), key_bytes);
  kv::KvStore store;
  store.init(std::vector<std::size_t>{0, 1, 2, 3},
             std::vector<std::size_t>{1, 1, 1, 1});
  store.bump(2);
  a.note_update(2, store.version(2));
  a.set_alive(1, false);

  util::serde::Writer w;
  a.save_state(w);
  kv::ReplicaTable b;
  b.init(three_shard_partition(), key_bytes);
  util::serde::Reader r(w.data());
  b.load_state(r);

  EXPECT_EQ(b.lag(store), 1u);
  EXPECT_FALSE(b.fresh(2, store));
  EXPECT_FALSE(b.alive(1));
  EXPECT_EQ(b.serving(1), a.serving(1));
  EXPECT_DOUBLE_EQ(b.stale_bytes(2, store), a.stale_bytes(2, store));
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
