// Tests for the extension systems: Sync-Switch, int8 quantization,
// error-feedback compression, multi-PS sharding, and sharded BSP/OSP.
#include <gtest/gtest.h>

#include <cmath>

#include "core/osp_sync.hpp"
#include "models/zoo.hpp"
#include "runtime/engine.hpp"
#include "sync/bsp.hpp"
#include "kv/compress.hpp"
#include "kv/partition.hpp"
#include "sync/kv_bsp.hpp"
#include "sync/sync_switch.hpp"
#include "util/check.hpp"

namespace osp {
namespace {

runtime::EngineConfig ext_config(std::size_t workers = 4,
                                 std::size_t epochs = 4) {
  runtime::EngineConfig cfg;
  cfg.num_workers = workers;
  cfg.max_epochs = epochs;
  cfg.seed = 23;
  cfg.straggler_jitter = 0.05;
  return cfg;
}

// ------------------------------------------------------------ Sync-Switch

TEST(SyncSwitch, SwitchesAtConfiguredEpoch) {
  const auto spec = models::tiny_mlp();
  sync::SyncSwitchSync sync(0.5);
  runtime::Engine engine(spec, ext_config(2, 4), sync);
  EXPECT_FALSE(sync.switched());
  (void)engine.run();
  EXPECT_TRUE(sync.switched());
}

TEST(SyncSwitch, ZeroFractionIsAspFromStart) {
  const auto spec = models::tiny_mlp();
  sync::SyncSwitchSync sync(0.0);
  runtime::Engine engine(spec, ext_config(2, 2), sync);
  (void)engine.run();
  EXPECT_TRUE(sync.switched());
}

TEST(SyncSwitch, FullFractionStaysBsp) {
  const auto spec = models::tiny_mlp();
  sync::SyncSwitchSync sync(1.0);
  runtime::Engine engine(spec, ext_config(2, 2), sync);
  const auto r = engine.run();
  // Never switches mid-run (switch epoch == max_epochs reached at the end).
  EXPECT_DOUBLE_EQ(r.total_samples, 2.0 * 2.0 * 16.0 * 16.0);
}

TEST(SyncSwitch, ThroughputBetweenBspAndAsp) {
  const auto spec = models::resnet50_cifar10();
  const auto cfg = ext_config(8, 6);
  sync::BspSync bsp;
  sync::SyncSwitchSync hybrid(0.5);
  runtime::Engine e1(spec, cfg, bsp);
  const double tb = e1.run().throughput;
  runtime::Engine e2(spec, cfg, hybrid);
  const double th = e2.run().throughput;
  EXPECT_GT(th, tb);  // second half runs ASP
}

TEST(SyncSwitch, TrainsToCompletion) {
  const auto spec = models::tiny_mlp();
  sync::SyncSwitchSync sync(0.3);
  runtime::Engine engine(spec, ext_config(3, 6), sync);
  const auto r = engine.run();
  EXPECT_GT(r.best_metric, 0.5);
  EXPECT_DOUBLE_EQ(r.total_samples, 3.0 * 6.0 * 10.0 * 16.0);
}

TEST(SyncSwitch, RejectsBadFraction) {
  EXPECT_THROW(sync::SyncSwitchSync(-0.1), util::CheckError);
  EXPECT_THROW(sync::SyncSwitchSync(1.5), util::CheckError);
}

// ----------------------------------------------------------- quantization

TEST(Quantization, RoundTripBoundedError) {
  std::vector<float> g = {0.5f, -1.0f, 0.25f, 0.8f};
  std::vector<float> original = g;
  const float scale = kv::quantize_dequantize_int8(g);
  EXPECT_GT(scale, 0.0f);
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_NEAR(g[i], original[i], scale / 2.0f + 1e-7f);
  }
}

TEST(Quantization, ZeroVectorUnchanged) {
  std::vector<float> g(8, 0.0f);
  EXPECT_FLOAT_EQ(kv::quantize_dequantize_int8(g), 0.0f);
  for (float v : g) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(Quantization, MaxValueExactlyRepresentable) {
  std::vector<float> g = {2.54f, -1.0f};
  kv::quantize_dequantize_int8(g);
  EXPECT_NEAR(g[0], 2.54f, 1e-6f);  // max maps to ±127 exactly
}

TEST(Quantization, Q8BspReducesBstKeepsAccuracy) {
  const auto spec = models::resnet50_cifar10();
  const auto cfg = ext_config(8, 8);
  sync::BspSync bsp;
  sync::KvBspSync q8(sync::quantized_bsp());
  runtime::Engine e1(spec, cfg, bsp);
  const auto rb = e1.run();
  runtime::Engine e2(spec, cfg, q8);
  const auto rq = e2.run();
  EXPECT_LT(rq.mean_bst_s, rb.mean_bst_s);          // 4× fewer wire bytes
  EXPECT_GT(rq.best_metric, rb.best_metric - 0.05); // bounded noise
}

// -------------------------------------------------------- error feedback

TEST(ErrorFeedback, RecoversTopKAccuracy) {
  // Plain TopK at an aggressive ratio loses accuracy; with residual memory
  // the dropped mass eventually ships and accuracy recovers.
  const auto spec = models::resnet50_cifar10();
  const auto cfg = ext_config(8, 10);
  sync::KvBspSync plain(sync::compressed_bsp(kv::CompressionMode::TopK, 0.05));
  sync::KvBspSync ef(
      sync::compressed_bsp(kv::CompressionMode::TopK, 0.05, 99, true));
  runtime::Engine e1(spec, cfg, plain);
  const auto rp = e1.run();
  runtime::Engine e2(spec, cfg, ef);
  const auto re = e2.run();
  EXPECT_GT(re.best_metric, rp.best_metric);
  EXPECT_EQ(ef.name(), "TopK(5%)+EF");
}

// --------------------------------------------------------------- sharding

TEST(Sharding, SingleShardIsAllZero) {
  std::vector<double> bytes = {10, 20, 30};
  const auto part = kv::byte_balanced_partition(bytes, 1);
  for (std::size_t s : part.owner) EXPECT_EQ(s, 0u);
}

TEST(Sharding, BalancesBytes) {
  std::vector<double> bytes = {50, 30, 20, 20, 10, 10};
  const auto part = kv::byte_balanced_partition(bytes, 2);
  const auto loads = kv::partition_bytes(bytes, part);
  EXPECT_DOUBLE_EQ(loads[0] + loads[1], 140.0);
  EXPECT_NEAR(loads[0], loads[1], 10.0);  // greedy gets within one block
}

TEST(Sharding, EveryShardNonEmptyWhenEnoughBlocks) {
  std::vector<double> bytes(8, 10.0);
  const auto part = kv::byte_balanced_partition(bytes, 4);
  const auto loads = kv::partition_bytes(bytes, part);
  for (double l : loads) EXPECT_GT(l, 0.0);
}

TEST(Sharding, RejectsZeroShards) {
  std::vector<double> bytes = {1.0};
  EXPECT_THROW((void)kv::byte_balanced_partition(bytes, 0),
               util::CheckError);
}

// ------------------------------------------------------------ sharded BSP

TEST(ShardedBsp, SinglePsMatchesPlainBspSamples) {
  const auto spec = models::tiny_mlp();
  const auto cfg = ext_config(2, 2);
  sync::KvBspSync sharded(sync::sharded_bsp());
  runtime::Engine engine(spec, cfg, sharded);
  const auto r = engine.run();
  EXPECT_EQ(sharded.name(), "BSP(x1PS)");
  EXPECT_DOUBLE_EQ(r.total_samples, 2.0 * 2.0 * 16.0 * 16.0);
  EXPECT_GT(r.best_metric, 0.5);
}

TEST(ShardedBsp, TwoPsFasterThanOne) {
  const auto spec = models::resnet50_cifar10();
  auto cfg1 = ext_config(8, 3);
  auto cfg2 = cfg1;
  cfg2.cluster.num_ps = 2;
  sync::KvBspSync one(sync::sharded_bsp());
  sync::KvBspSync two(sync::sharded_bsp());
  runtime::Engine e1(spec, cfg1, one);
  const auto r1 = e1.run();
  runtime::Engine e2(spec, cfg2, two);
  const auto r2 = e2.run();
  EXPECT_GT(r2.throughput, r1.throughput);
  EXPECT_LT(r2.mean_bst_s, r1.mean_bst_s);
}

TEST(ShardedBsp, MatchesBspNumerics) {
  // With identical configs, sharded BSP and plain BSP apply identical
  // updates (mean gradient, same LR), so accuracy trajectories agree.
  const auto spec = models::tiny_mlp();
  const auto cfg = ext_config(2, 3);
  sync::BspSync plain;
  sync::KvBspSync sharded(sync::sharded_bsp());
  runtime::Engine e1(spec, cfg, plain);
  const auto r1 = e1.run();
  runtime::Engine e2(spec, cfg, sharded);
  const auto r2 = e2.run();
  ASSERT_EQ(r1.curve.size(), r2.curve.size());
  for (std::size_t i = 0; i < r1.curve.size(); ++i) {
    EXPECT_NEAR(r1.curve[i].metric, r2.curve[i].metric, 1e-9);
  }
}

TEST(ShardedBsp, RejectsFiltersAndUnbuiltProfiles) {
  // Per-PS shards push by reference, so no filter stage or residual can
  // apply; the KV-core BSP refuses such configurations up front.
  sync::KvBspOptions filtered = sync::sharded_bsp();
  filtered.quantize_int8 = true;
  EXPECT_THROW(sync::KvBspSync{filtered}, util::CheckError);
  sync::KvBspOptions ef = sync::sharded_bsp();
  ef.error_feedback = true;
  EXPECT_THROW(sync::KvBspSync{ef}, util::CheckError);
  sync::KvBspOptions q8 = sync::quantized_bsp();
  q8.quantize_int8 = false;
  EXPECT_THROW(sync::KvBspSync{q8}, util::CheckError);
  EXPECT_THROW(
      sync::KvBspSync{sync::compressed_bsp(kv::CompressionMode::TopK, 0.0)},
      util::CheckError);
  EXPECT_THROW(
      sync::KvBspSync{sync::compressed_bsp(kv::CompressionMode::TopK, 1.5)},
      util::CheckError);
}

// ------------------------------------------------------------ multi-PS OSP

TEST(MultiPsOsp, RunsAndNames) {
  const auto spec = models::resnet50_cifar10();
  auto cfg = ext_config(4, 4);
  cfg.cluster.num_ps = 2;
  core::OspSync osp;
  runtime::Engine engine(spec, cfg, osp);
  const auto r = engine.run();
  EXPECT_EQ(osp.num_ps(), 2u);
  EXPECT_EQ(r.sync_name, "OSP(x2PS)");
  EXPECT_GT(r.total_samples, 0.0);
}

TEST(MultiPsOsp, TwoPsReducesBst) {
  const auto spec = models::resnet50_cifar10();
  auto cfg1 = ext_config(8, 8);
  auto cfg2 = cfg1;
  cfg2.cluster.num_ps = 2;
  core::OspSync one;
  core::OspSync two;
  runtime::Engine e1(spec, cfg1, one);
  const auto r1 = e1.run();
  runtime::Engine e2(spec, cfg2, two);
  const auto r2 = e2.run();
  EXPECT_LT(r2.steady_bst_s, r1.steady_bst_s);
  EXPECT_GE(r2.throughput, r1.throughput * 0.99);
}

TEST(MultiPsOsp, UmaxScalesWithPs) {
  const auto spec = models::vgg16_cifar10();  // bandwidth-bound U_max
  auto cfg1 = ext_config(8, 1);
  auto cfg2 = cfg1;
  cfg2.cluster.num_ps = 2;
  core::OspSync one;
  core::OspSync two;
  runtime::Engine e1(spec, cfg1, one);
  (void)e1.run();
  runtime::Engine e2(spec, cfg2, two);
  (void)e2.run();
  EXPECT_GT(two.u_max(), one.u_max());
}

TEST(MultiPsOsp, AccuracyMatchesSinglePs) {
  // Sharding is a communication-layer change; the numerics are identical.
  const auto spec = models::tiny_mlp();
  auto cfg1 = ext_config(2, 4);
  auto cfg2 = cfg1;
  cfg2.cluster.num_ps = 3;
  core::OspSync one;
  core::OspSync three;
  runtime::Engine e1(spec, cfg1, one);
  const auto r1 = e1.run();
  runtime::Engine e2(spec, cfg2, three);
  const auto r2 = e2.run();
  EXPECT_NEAR(r1.best_metric, r2.best_metric, 0.08);
  EXPECT_GT(r2.best_metric, 0.5);
}

TEST(MultiPs, ClusterValidation) {
  sim::Simulator sim;
  sim::ClusterConfig cfg;
  cfg.num_workers = 2;
  cfg.num_ps = 0;
  EXPECT_THROW(sim::Cluster(sim, cfg), util::CheckError);
  cfg.num_ps = 2;
  cfg.colocated_ps = true;
  EXPECT_THROW(sim::Cluster(sim, cfg), util::CheckError);
}

TEST(MultiPs, RoutesAreDistinctPerPs) {
  sim::Simulator sim;
  sim::ClusterConfig cfg;
  cfg.num_workers = 2;
  cfg.num_ps = 2;
  sim::Cluster cluster(sim, cfg);
  EXPECT_EQ(cluster.network().num_links(), 8u);  // 4 nodes × 2 links
  const auto r0 = cluster.route_to_ps(0, 0);
  const auto r1 = cluster.route_to_ps(0, 1);
  EXPECT_EQ(r0[0], r1[0]);  // same worker uplink
  EXPECT_NE(r0[1], r1[1]);  // different PS downlinks
}

}  // namespace
}  // namespace osp
