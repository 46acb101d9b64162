// End-to-end smoke tests: one tiny workload trained to convergence under
// each sync model, asserting the engine's basic invariants.
#include <gtest/gtest.h>

#include "core/osp_sync.hpp"
#include "models/zoo.hpp"
#include "runtime/engine.hpp"
#include "sync/async.hpp"
#include "sync/bsp.hpp"
#include "sync/r2sp.hpp"

namespace osp {
namespace {

runtime::EngineConfig tiny_config() {
  runtime::EngineConfig cfg;
  cfg.num_workers = 4;
  cfg.max_epochs = 8;
  cfg.seed = 11;
  return cfg;
}

TEST(Smoke, BspTrainsTinyMlp) {
  const runtime::WorkloadSpec spec = models::tiny_mlp();
  sync::BspSync sync;
  runtime::Engine engine(spec, tiny_config(), sync);
  const runtime::RunResult r = engine.run();
  EXPECT_GT(r.total_samples, 0.0);
  EXPECT_GT(r.total_time_s, 0.0);
  EXPECT_GT(r.throughput, 0.0);
  EXPECT_GT(r.best_metric, 0.5) << "BSP failed to learn the tiny task";
  EXPECT_FALSE(r.curve.empty());
  EXPECT_EQ(r.epoch_losses.size(), 8u);
}

TEST(Smoke, AspTrainsTinyMlp) {
  const runtime::WorkloadSpec spec = models::tiny_mlp();
  sync::AsyncSync sync;
  runtime::Engine engine(spec, tiny_config(), sync);
  const runtime::RunResult r = engine.run();
  EXPECT_GT(r.best_metric, 0.5);
}

TEST(Smoke, R2spTrainsTinyMlp) {
  const runtime::WorkloadSpec spec = models::tiny_mlp();
  sync::R2spSync sync;
  runtime::Engine engine(spec, tiny_config(), sync);
  const runtime::RunResult r = engine.run();
  EXPECT_GT(r.best_metric, 0.5);
}

TEST(Smoke, SspTrainsTinyMlp) {
  const runtime::WorkloadSpec spec = models::tiny_mlp();
  sync::AsyncSync sync(sync::ssp(3));
  runtime::Engine engine(spec, tiny_config(), sync);
  const runtime::RunResult r = engine.run();
  EXPECT_GT(r.best_metric, 0.5);
}

TEST(Smoke, OspTrainsTinyMlp) {
  const runtime::WorkloadSpec spec = models::tiny_mlp();
  core::OspSync sync;
  runtime::Engine engine(spec, tiny_config(), sync);
  const runtime::RunResult r = engine.run();
  EXPECT_GT(r.best_metric, 0.5);
  EXPECT_GT(r.throughput, 0.0);
}

TEST(Smoke, DeterministicRepeatedRuns) {
  const runtime::WorkloadSpec spec = models::tiny_mlp();
  auto run_once = [&] {
    sync::BspSync sync;
    runtime::Engine engine(spec, tiny_config(), sync);
    return engine.run();
  };
  const runtime::RunResult a = run_once();
  const runtime::RunResult b = run_once();
  EXPECT_DOUBLE_EQ(a.total_time_s, b.total_time_s);
  EXPECT_DOUBLE_EQ(a.best_metric, b.best_metric);
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.curve[i].metric, b.curve[i].metric);
  }
}

}  // namespace
}  // namespace osp
