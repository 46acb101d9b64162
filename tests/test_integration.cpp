// Cross-module integration tests: QA pipeline end-to-end, trace-derived
// comm shares, OSP determinism, and degradation equivalences.
#include <gtest/gtest.h>

#include <numeric>

#include "core/osp_sync.hpp"
#include "data/loader.hpp"
#include "models/zoo.hpp"
#include "nn/loss.hpp"
#include "nn/metrics.hpp"
#include "nn/optimizer.hpp"
#include "nn/registry.hpp"
#include "runtime/engine.hpp"
#include "sync/async.hpp"
#include "sync/bsp.hpp"

namespace osp {
namespace {

TEST(QaPipeline, SingleWorkerLearnsSpans) {
  // The attention + span-head stack must learn the synthetic QA task with
  // plain SGD — the foundation under the BERTbase workload.
  const auto spec = models::bertbase_squad();
  nn::Sequential model = spec.build_model(3);
  nn::FlatModel flat(model);
  std::vector<float> params(flat.total_params());
  std::vector<float> grad(flat.total_params());
  flat.gather_params(params);
  nn::SgdOptimizer opt(params.size());
  data::ShardLoader loader(*spec.train, 0, 8, spec.batch_size, 5);

  double first_f1 = -1.0;
  double best_f1 = 0.0;
  for (std::size_t epoch = 0; epoch < 6; ++epoch) {
    for (std::size_t b = 0; b < loader.batches_per_epoch(); ++b) {
      const data::Batch batch = loader.batch(epoch, b);
      flat.scatter_params(params);
      model.zero_grad();
      const tensor::Tensor logits = model.forward(batch.inputs, true);
      const nn::LossResult loss =
          nn::span_cross_entropy(logits, batch.starts, batch.ends);
      (void)model.backward(loss.grad_logits);
      flat.gather_grads(grad);
      opt.step(params, grad, 0.1);
    }
    // Evaluate on a slice of the eval set.
    flat.scatter_params(params);
    std::vector<std::size_t> idx(48);
    std::iota(idx.begin(), idx.end(), 0);
    const data::Batch eval = spec.eval->make_batch(idx);
    const tensor::Tensor logits = model.forward(eval.inputs, false);
    const double f1 = nn::batch_span_f1(logits, eval.starts, eval.ends);
    best_f1 = std::max(best_f1, f1);
    if (first_f1 < 0.0) first_f1 = f1;
  }
  EXPECT_GT(best_f1, 0.45) << "QA proxy failed to learn";
  EXPECT_GE(best_f1, first_f1);
}

TEST(TraceIntegration, OspSyncShareBelowBsp) {
  // The whole point of the two-stage design, read off the trace.
  const auto spec = models::resnet50_cifar10();
  runtime::EngineConfig cfg;
  cfg.num_workers = 4;
  cfg.max_epochs = 8;
  cfg.seed = 9;
  cfg.record_trace = true;

  sync::BspSync bsp;
  runtime::Engine e1(spec, cfg, bsp);
  (void)e1.run();
  const double bsp_share = e1.trace().blocking_sync_fraction();

  core::OspSync osp;
  runtime::Engine e2(spec, cfg, osp);
  (void)e2.run();
  const double osp_share = e2.trace().blocking_sync_fraction();

  EXPECT_LT(osp_share, bsp_share);
  EXPECT_GT(bsp_share, 0.3);  // BSP on ResNet50/10G is comm-heavy
}

TEST(OspDeterminism, IdenticalRunsBitwiseEqualCurves) {
  const auto spec = models::tiny_mlp();
  auto run_once = [&] {
    runtime::EngineConfig cfg;
    cfg.num_workers = 4;
    cfg.max_epochs = 5;
    cfg.seed = 77;
    cfg.straggler_jitter = 0.1;
    core::OspSync osp;
    runtime::Engine engine(spec, cfg, osp);
    return engine.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.total_time_s, b.total_time_s);
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.curve[i].metric, b.curve[i].metric);
    EXPECT_DOUBLE_EQ(a.curve[i].loss, b.curve[i].loss);
  }
}

TEST(Degradation, OspFixedZeroMatchesBspAccuracyExactly) {
  // §4.3: all gradients in RS ⇒ the numerics are BSP's, not just the
  // timing. Curves must agree to float precision.
  const auto spec = models::tiny_mlp();
  runtime::EngineConfig cfg;
  cfg.num_workers = 2;
  cfg.max_epochs = 4;
  cfg.seed = 31;

  sync::BspSync bsp;
  runtime::Engine e1(spec, cfg, bsp);
  const auto rb = e1.run();

  core::OspOptions opts;
  opts.fixed_budget_fraction = 0.0;
  core::OspSync osp(opts);
  runtime::Engine e2(spec, cfg, osp);
  const auto ro = e2.run();

  ASSERT_EQ(rb.curve.size(), ro.curve.size());
  for (std::size_t i = 0; i < rb.curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(rb.curve[i].metric, ro.curve[i].metric);
    EXPECT_NEAR(rb.curve[i].loss, ro.curve[i].loss, 1e-12);
  }
}

TEST(LearningRateSchedule, HalvesInLongRuns) {
  // 12 epochs crosses the paper's 10-epoch decay boundary; the engine must
  // keep training (sanity: loss keeps falling) with the decayed LR.
  const auto spec = models::tiny_mlp();
  runtime::EngineConfig cfg;
  cfg.num_workers = 2;
  cfg.max_epochs = 12;
  cfg.seed = 13;
  sync::AsyncSync asp;
  runtime::Engine engine(spec, cfg, asp);
  const auto r = engine.run();
  ASSERT_EQ(r.epoch_losses.size(), 12u);
  EXPECT_LT(r.epoch_losses.back(), r.epoch_losses.front());
}

TEST(Momentum, EngineSupportsMomentumTraining) {
  const auto spec = models::tiny_mlp();
  runtime::EngineConfig cfg;
  cfg.num_workers = 2;
  cfg.max_epochs = 4;
  cfg.momentum = 0.9;
  cfg.lr_schedule = nn::StepLrSchedule(0.02, 10, 0.5);  // momentum needs lower lr
  sync::BspSync bsp;
  runtime::Engine engine(spec, cfg, bsp);
  const auto r = engine.run();
  EXPECT_GT(r.best_metric, 0.6);
}

}  // namespace
}  // namespace osp
