// Tests for the §7 related-work sync models (DSSP, CASP) and the §6.2
// batch-balancing support.
#include <gtest/gtest.h>

#include "models/zoo.hpp"
#include "runtime/engine.hpp"
#include "sync/async.hpp"
#include "sync/bsp.hpp"
#include "sync/casp.hpp"
#include "util/check.hpp"

namespace osp {
namespace {

runtime::EngineConfig rel_config(std::size_t workers = 4,
                                 std::size_t epochs = 4) {
  runtime::EngineConfig cfg;
  cfg.num_workers = workers;
  cfg.max_epochs = epochs;
  cfg.seed = 29;
  cfg.straggler_jitter = 0.05;
  return cfg;
}

TEST(Dssp, TrainsAndNames) {
  const auto spec = models::tiny_mlp();
  sync::AsyncSync dssp(sync::dssp(1, 4));
  runtime::Engine engine(spec, rel_config(), dssp);
  const auto r = engine.run();
  EXPECT_EQ(r.sync_name, "DSSP(1..4)");
  EXPECT_GT(r.best_metric, 0.5);
  EXPECT_DOUBLE_EQ(r.total_samples, 4.0 * 4.0 * 8.0 * 16.0);
}

TEST(Dssp, BoundStaysInRange) {
  const auto spec = models::tiny_mlp();
  auto cfg = rel_config(3, 8);
  cfg.cluster.speed_factors = {1.0, 1.0, 0.4};  // force spread
  sync::AsyncSync dssp(sync::dssp(1, 5));
  runtime::Engine engine(spec, cfg, dssp);
  (void)engine.run();
  EXPECT_GE(dssp.current_bound(), 1u);
  EXPECT_LE(dssp.current_bound(), 5u);
}

TEST(Dssp, TightensUnderStragglers) {
  // With a strong straggler the spread hits the bound every epoch, so the
  // bound must walk down toward the minimum.
  const auto spec = models::tiny_mlp();
  auto cfg = rel_config(2, 10);
  cfg.cluster.speed_factors = {1.0, 0.25};
  sync::AsyncSync dssp(sync::dssp(1, 8));
  runtime::Engine engine(spec, cfg, dssp);
  (void)engine.run();
  EXPECT_LT(dssp.current_bound(), 8u);
}

TEST(Dssp, RejectsInvertedBounds) {
  EXPECT_THROW(sync::AsyncSync(sync::dssp(5, 2)), util::CheckError);
}

TEST(Casp, GroupsBySpeed) {
  const auto spec = models::tiny_mlp();
  auto cfg = rel_config(4, 2);
  cfg.cluster.speed_factors = {1.0, 1.0, 0.5, 0.5};
  sync::CaspSync casp;
  runtime::Engine engine(spec, cfg, casp);
  const auto r = engine.run();
  EXPECT_EQ(casp.num_groups(), 2u);
  EXPECT_EQ(r.sync_name, "CASP(g=2)");
  EXPECT_DOUBLE_EQ(r.total_samples, 4.0 * 2.0 * 8.0 * 16.0);
}

TEST(Casp, HomogeneousIsOneGroupLikeBsp) {
  const auto spec = models::tiny_mlp();
  const auto cfg = rel_config(3, 3);
  sync::CaspSync casp;
  runtime::Engine e1(spec, cfg, casp);
  const auto rc = e1.run();
  EXPECT_EQ(casp.num_groups(), 1u);
  sync::BspSync bsp;
  runtime::Engine e2(spec, cfg, bsp);
  const auto rb = e2.run();
  // One group == global barrier + mean aggregation: identical numerics.
  ASSERT_EQ(rc.curve.size(), rb.curve.size());
  for (std::size_t i = 0; i < rc.curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(rc.curve[i].metric, rb.curve[i].metric);
  }
}

TEST(Casp, FastGroupOutpacesSlowGroup) {
  const auto spec = models::resnet50_cifar10();
  auto cfg = rel_config(4, 4);
  cfg.cluster.speed_factors = {1.0, 1.0, 0.4, 0.4};
  sync::CaspSync casp;
  sync::BspSync bsp;
  runtime::Engine e1(spec, cfg, casp);
  const auto rc = e1.run();
  runtime::Engine e2(spec, cfg, bsp);
  const auto rb = e2.run();
  // The fast group no longer waits for the slow one each iteration.
  EXPECT_GT(rc.throughput, rb.throughput);
}

TEST(BatchBalancing, EqualizesComputeAndWeights) {
  const auto spec = models::tiny_mlp();
  auto cfg = rel_config(2, 2);
  cfg.cluster.speed_factors = {1.0, 0.5};
  cfg.balance_batch_to_speed = true;
  sync::BspSync bsp;
  runtime::Engine engine(spec, cfg, bsp);
  EXPECT_EQ(engine.worker_batch(0), 16u);
  EXPECT_EQ(engine.worker_batch(1), 8u);
  EXPECT_NEAR(engine.worker_weight(0), 16.0 / 24.0, 1e-12);
  EXPECT_NEAR(engine.worker_weight(1), 8.0 / 24.0, 1e-12);
  const auto r = engine.run();
  EXPECT_GT(r.best_metric, 0.5);
}

TEST(BatchBalancing, RestoresBspThroughputUnderHeterogeneity) {
  // §6.2: with batch ∝ speed, the barrier no longer throttles to the
  // straggler (per-iteration time equalizes), so BSP regains throughput
  // relative to the unbalanced heterogeneous run.
  const auto spec = models::resnet50_cifar10();
  auto cfg = rel_config(4, 4);
  cfg.cluster.speed_factors = {1.0, 1.0, 1.0, 0.5};
  sync::BspSync plain;
  runtime::Engine e1(spec, cfg, plain);
  const auto r_plain = e1.run();

  auto balanced_cfg = cfg;
  balanced_cfg.balance_batch_to_speed = true;
  sync::BspSync balanced;
  runtime::Engine e2(spec, balanced_cfg, balanced);
  const auto r_balanced = e2.run();
  // Compare per-iteration pace (samples differ: balanced batches shrink).
  const double pace_plain = r_plain.total_samples / r_plain.total_time_s;
  const double pace_balanced =
      r_balanced.total_samples / r_balanced.total_time_s;
  EXPECT_GT(pace_balanced, pace_plain);
}

TEST(BatchBalancing, UniformWeightsByDefault) {
  const auto spec = models::tiny_mlp();
  sync::BspSync bsp;
  runtime::Engine engine(spec, rel_config(4, 1), bsp);
  for (std::size_t w = 0; w < 4; ++w) {
    EXPECT_DOUBLE_EQ(engine.worker_weight(w), 0.25);
    EXPECT_EQ(engine.worker_batch(w), 16u);
  }
}

}  // namespace
}  // namespace osp
