// Behavioural tests of the sync models, verified through full engine runs
// on the tiny workload: ordering properties (who waits, who doesn't),
// staleness bounds, sparsification correctness, and cross-model invariants.
// The GoldenBitIdentity suite at the bottom pins every sync model's full
// RunResult + final parameters against goldens captured from main before
// the KV-core refactor, at 1/2/8 pool threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/osp_sync.hpp"
#include "kv/compress.hpp"
#include "models/zoo.hpp"
#include "runtime/engine.hpp"
#include "sync/async.hpp"
#include "sync/bsp.hpp"
#include "sync/casp.hpp"
#include "sync/kv_bsp.hpp"
#include "sync/r2sp.hpp"
#include "sync/sync_switch.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace osp {
namespace {

runtime::EngineConfig sync_config(std::size_t workers = 4,
                                  std::size_t epochs = 4,
                                  double jitter = 0.05) {
  runtime::EngineConfig cfg;
  cfg.num_workers = workers;
  cfg.max_epochs = epochs;
  cfg.seed = 17;
  cfg.straggler_jitter = jitter;
  return cfg;
}

runtime::RunResult run_model(runtime::SyncModel& sync,
                             const runtime::EngineConfig& cfg,
                             const runtime::WorkloadSpec& spec) {
  runtime::Engine engine(spec, cfg, sync);
  return engine.run();
}

TEST(BspBehaviour, AllWorkersSameIterationCount) {
  // BSP's barrier keeps workers in lockstep: total samples must divide
  // evenly even with jitter.
  const auto spec = models::tiny_mlp();
  sync::BspSync sync;
  const auto r = run_model(sync, sync_config(), spec);
  EXPECT_DOUBLE_EQ(r.total_samples, 4.0 * 4.0 * 8.0 * 16.0);
}

TEST(BspBehaviour, BstGrowsWithWorkers) {
  // Incast: more simultaneous pushes → longer synchronization.
  const auto spec = models::resnet50_cifar10();
  auto bst_with = [&](std::size_t workers) {
    sync::BspSync sync;
    auto cfg = sync_config(workers, 1, 0.0);
    runtime::Engine engine(spec, cfg, sync);
    return engine.run().mean_bst_s;
  };
  const double bst2 = bst_with(2);
  const double bst8 = bst_with(8);
  EXPECT_GT(bst8, 2.5 * bst2);
}

TEST(AspBehaviour, FasterThanBspUnderJitter) {
  const auto spec = models::resnet50_cifar10();
  const auto cfg = sync_config(8, 2, 0.1);
  sync::BspSync bsp;
  sync::AsyncSync asp;
  const auto rb = run_model(bsp, cfg, spec);
  const auto ra = run_model(asp, cfg, spec);
  EXPECT_GT(ra.throughput, rb.throughput);
  EXPECT_LT(ra.mean_bst_s, rb.mean_bst_s);
}

TEST(SspBehaviour, BoundsIterationSpread) {
  // With a large speed disparity and bound s, the fast worker may never be
  // more than s iterations ahead. Observable consequence: total samples are
  // nearly balanced, unlike pure ASP.
  auto spec = models::tiny_mlp();
  auto cfg = sync_config(2, 4, 0.0);
  cfg.cluster.speed_factors = {1.0, 0.25};
  sync::AsyncSync ssp(sync::ssp(2));
  const auto r = run_model(ssp, cfg, spec);
  // Both workers complete all their epochs regardless.
  EXPECT_DOUBLE_EQ(r.total_samples, 2.0 * 4.0 * 16.0 * 16.0);
  EXPECT_GT(r.best_metric, 0.5);
}

TEST(SspBehaviour, ZeroBoundActsLikeBarrier) {
  auto spec = models::tiny_mlp();
  auto cfg = sync_config(3, 2, 0.2);
  sync::AsyncSync ssp(sync::ssp(0));
  const auto r = run_model(ssp, cfg, spec);
  EXPECT_GT(r.total_samples, 0.0);  // must not deadlock
}

TEST(R2spBehaviour, SlowerThanAspFasterThanBsp) {
  const auto spec = models::resnet50_cifar10();
  const auto cfg = sync_config(8, 2, 0.05);
  sync::BspSync bsp;
  sync::AsyncSync asp;
  sync::R2spSync r2sp;
  const double tb = run_model(bsp, cfg, spec).throughput;
  const double ta = run_model(asp, cfg, spec).throughput;
  const double tr = run_model(r2sp, cfg, spec).throughput;
  EXPECT_GT(tr, tb);
  EXPECT_LT(tr, ta);
}

TEST(R2spBehaviour, SerialVariantIsSlower) {
  const auto spec = models::resnet50_cifar10();
  const auto cfg = sync_config(8, 1, 0.05);
  sync::R2spSync serial(false);
  sync::R2spSync duplex(true);
  const double ts = run_model(serial, cfg, spec).throughput;
  const double td = run_model(duplex, cfg, spec).throughput;
  EXPECT_GT(td, ts);
  EXPECT_EQ(serial.name(), "R2SP(serial)");
  EXPECT_EQ(duplex.name(), "R2SP");
}

TEST(Compression, SparsifyTopKKeepsLargest) {
  std::vector<float> g = {0.1f, -5.0f, 0.2f, 3.0f, -0.05f};
  util::Rng rng(1);
  const std::size_t kept = kv::sparsify(g, kv::CompressionMode::TopK, 0.4,
                                        rng);
  EXPECT_EQ(kept, 2u);
  EXPECT_FLOAT_EQ(g[1], -5.0f);
  EXPECT_FLOAT_EQ(g[3], 3.0f);
  EXPECT_FLOAT_EQ(g[0], 0.0f);
  EXPECT_FLOAT_EQ(g[2], 0.0f);
  EXPECT_FLOAT_EQ(g[4], 0.0f);
}

TEST(Compression, SparsifyTopKTiesDeterministic) {
  std::vector<float> g = {1.0f, 1.0f, 1.0f, 1.0f};
  util::Rng rng(1);
  const std::size_t kept = kv::sparsify(g, kv::CompressionMode::TopK, 0.5,
                                        rng);
  EXPECT_EQ(kept, 2u);
  EXPECT_FLOAT_EQ(g[0], 1.0f);  // index order fills tie slots
  EXPECT_FLOAT_EQ(g[1], 1.0f);
  EXPECT_FLOAT_EQ(g[2], 0.0f);
}

TEST(Compression, SparsifyRandomKCount) {
  std::vector<float> g(100, 1.0f);
  util::Rng rng(2);
  const std::size_t kept = kv::sparsify(g, kv::CompressionMode::RandomK,
                                        0.3, rng);
  EXPECT_EQ(kept, 30u);
  std::size_t nonzero = 0;
  for (float v : g) nonzero += v != 0.0f ? 1 : 0;
  EXPECT_EQ(nonzero, 30u);
}

TEST(Compression, KeepAllIsIdentity) {
  std::vector<float> g = {1.0f, 2.0f};
  util::Rng rng(3);
  EXPECT_EQ(kv::sparsify(g, kv::CompressionMode::TopK, 1.0, rng), 2u);
  EXPECT_FLOAT_EQ(g[0], 1.0f);
}

TEST(Compression, TopKBspReducesBstVersusBsp) {
  const auto spec = models::resnet50_cifar10();
  const auto cfg = sync_config(8, 2, 0.0);
  sync::BspSync bsp;
  sync::KvBspSync topk(sync::compressed_bsp(kv::CompressionMode::TopK, 0.1));
  const auto rb = run_model(bsp, cfg, spec);
  const auto rt = run_model(topk, cfg, spec);
  EXPECT_LT(rt.mean_bst_s, rb.mean_bst_s * 0.5);
}

TEST(Compression, TopKLosesAccuracyVersusBsp) {
  // Dropped gradients (no error feedback) must cost accuracy — the §2.2.2
  // failure mode OSP exists to avoid.
  const auto spec = models::resnet50_cifar10();
  const auto cfg = sync_config(8, 8, 0.0);
  sync::BspSync bsp;
  sync::KvBspSync topk(sync::compressed_bsp(kv::CompressionMode::TopK, 0.05));
  const auto rb = run_model(bsp, cfg, spec);
  const auto rt = run_model(topk, cfg, spec);
  EXPECT_LT(rt.best_metric, rb.best_metric);
}

TEST(OspBehaviour, FirstEpochDegradesToBsp) {
  // Algorithm 1 sets S(Gᵘ)₁ = 0: during epoch 1 the GIB stays
  // all-important, so no ICS rounds run.
  const auto spec = models::tiny_mlp();
  core::OspSync osp;
  auto cfg = sync_config(2, 1, 0.0);
  runtime::Engine engine(spec, cfg, osp);
  (void)engine.run();
  EXPECT_EQ(osp.ics_rounds_completed(), 0u);
  EXPECT_DOUBLE_EQ(osp.current_ics_budget(), 0.0);
}

TEST(OspBehaviour, BudgetRampsAfterFirstEpoch) {
  const auto spec = models::tiny_mlp();
  core::OspSync osp;
  auto cfg = sync_config(2, 6, 0.0);
  runtime::Engine engine(spec, cfg, osp);
  (void)engine.run();
  EXPECT_GT(osp.current_ics_budget(), 0.0);
  EXPECT_LE(osp.current_ics_budget(), osp.u_max());
  EXPECT_GT(osp.ics_rounds_completed(), 0u);
}

TEST(OspBehaviour, FixedZeroBudgetEqualsBspTiming) {
  const auto spec = models::resnet50_cifar10();
  const auto cfg = sync_config(4, 2, 0.0);
  core::OspOptions opts;
  opts.fixed_budget_fraction = 0.0;
  core::OspSync osp(opts);
  sync::BspSync bsp;
  const auto ro = run_model(osp, cfg, spec);
  const auto rb = run_model(bsp, cfg, spec);
  // §4.3: all gradients in RS ⇒ BSP. Timing matches up to the GIB's few
  // bytes and identical PS costs.
  EXPECT_NEAR(ro.mean_bst_s, rb.mean_bst_s, 0.02 * rb.mean_bst_s);
  EXPECT_DOUBLE_EQ(ro.total_samples, rb.total_samples);
}

TEST(OspBehaviour, LargerFixedBudgetLowersBst) {
  const auto spec = models::resnet50_cifar10();
  const auto cfg = sync_config(8, 2, 0.0);
  auto bst_with = [&](double fraction) {
    core::OspOptions opts;
    opts.fixed_budget_fraction = fraction;
    core::OspSync osp(opts);
    runtime::Engine engine(spec, cfg, osp);
    return engine.run().mean_bst_s;
  };
  const double none = bst_with(0.0);
  const double half = bst_with(0.4);
  const double most = bst_with(0.8);
  EXPECT_LT(half, none);
  EXPECT_LT(most, half);
}

TEST(OspBehaviour, AccuracyComparableToBsp) {
  const auto spec = models::resnet50_cifar10();
  const auto cfg = sync_config(8, 10, 0.05);
  sync::BspSync bsp;
  core::OspSync osp;
  const auto rb = run_model(bsp, cfg, spec);
  const auto ro = run_model(osp, cfg, spec);
  EXPECT_GT(ro.best_metric, rb.best_metric - 0.05)
      << "OSP lost accuracy versus BSP";
}

TEST(OspBehaviour, ColocatedRequiresColocatedCluster) {
  const auto spec = models::tiny_mlp();
  core::OspOptions opts;
  opts.colocated_ps = true;
  core::OspSync osp(opts);
  auto cfg = sync_config(2, 1, 0.0);  // cluster NOT co-located
  runtime::Engine engine(spec, cfg, osp);
  EXPECT_THROW((void)engine.run(), util::CheckError);
}

TEST(OspBehaviour, ColocatedChargesGibOverhead) {
  const auto spec = models::tiny_mlp();
  auto cfg = sync_config(2, 2, 0.0);
  cfg.cluster.colocated_ps = true;
  core::OspOptions colo;
  colo.colocated_ps = true;
  core::OspSync osp_c(colo);
  core::OspSync osp_s;
  runtime::Engine e1(spec, cfg, osp_c);
  const auto rc = e1.run();
  runtime::Engine e2(spec, cfg, osp_s);
  const auto rs = e2.run();
  EXPECT_GT(rc.mean_bct_s, rs.mean_bct_s);
}

TEST(OspBehaviour, EmaVariantRuns) {
  const auto spec = models::tiny_mlp();
  core::OspOptions opts;
  opts.use_ema_lgp = true;
  core::OspSync osp(opts);
  const auto r = run_model(osp, sync_config(2, 4, 0.0), spec);
  EXPECT_GT(r.best_metric, 0.5);
}

TEST(OspBehaviour, RankingVariantsRun) {
  const auto spec = models::tiny_mlp();
  for (auto ranking : {core::OspOptions::Ranking::kPgp,
                       core::OspOptions::Ranking::kPgpSum,
                       core::OspOptions::Ranking::kMagnitude,
                       core::OspOptions::Ranking::kRandom}) {
    core::OspOptions opts;
    opts.ranking = ranking;
    core::OspSync osp(opts);
    const auto r = run_model(osp, sync_config(2, 3, 0.0), spec);
    EXPECT_GT(r.best_metric, 0.4);
  }
}

TEST(OspBehaviour, NamesEncodeOptions) {
  EXPECT_EQ(core::OspSync().name(), "OSP");
  core::OspOptions a;
  a.enable_lgp = false;
  EXPECT_EQ(core::OspSync(a).name(), "OSP(no-LGP)");
  core::OspOptions b;
  b.colocated_ps = true;
  EXPECT_EQ(core::OspSync(b).name(), "OSP-C");
  core::OspOptions c;
  c.fixed_budget_fraction = 0.5;
  EXPECT_EQ(core::OspSync(c).name(), "OSP(fixed=50%)");
}

// ---- Golden bit-identity regression ------------------------------------
//
// Every sync model runs the tiny workload to completion and its final
// global parameters + full RunResult are hashed and compared against
// goldens captured from main *before* the KV-core refactor (the file in
// tests/golden/). Two more cases, BSP and OSP on two epochs of the ResNet50
// proxy, pin the conv stack, captured before the conv kernels were
// rewritten. Each case runs under 1-, 2-, and 8-thread pools, so the
// suite simultaneously pins thread-count invariance and the KV port's
// flow-for-flow equivalence: any change to a wire byte count, an event
// ordering, or a float operation shows up as a hash mismatch.
//
// Regenerate (only for an intentional, reviewed behaviour change):
//   OSP_UPDATE_GOLDENS=1 ./test_sync --gtest_filter='GoldenBitIdentity.*'

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = kFnvOffset) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

void fold_f64(std::uint64_t& h, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  h = fnv1a(&bits, sizeof(bits), h);
}

void fold_u64(std::uint64_t& h, std::uint64_t v) {
  h = fnv1a(&v, sizeof(v), h);
}

std::uint64_t hash_params(std::span<const float> params) {
  return fnv1a(params.data(), params.size() * sizeof(float));
}

std::uint64_t hash_result(const runtime::RunResult& r) {
  std::uint64_t h = kFnvOffset;
  h = fnv1a(r.sync_name.data(), r.sync_name.size(), h);
  fold_f64(h, r.total_time_s);
  fold_f64(h, r.total_samples);
  fold_f64(h, r.throughput);
  fold_f64(h, r.best_metric);
  fold_f64(h, r.final_loss);
  fold_f64(h, r.mean_bct_s);
  fold_f64(h, r.mean_bst_s);
  fold_f64(h, r.steady_bst_s);
  fold_f64(h, r.p99_bst_s);
  fold_f64(h, r.steady_throughput);
  fold_f64(h, r.iters_to_target.value_or(-1.0));
  fold_f64(h, r.time_to_target_s.value_or(-1.0));
  fold_u64(h, r.curve.size());
  for (const auto& p : r.curve) {
    fold_f64(h, p.time_s);
    fold_f64(h, p.samples);
    fold_f64(h, p.metric);
    fold_f64(h, p.loss);
  }
  fold_u64(h, r.epoch_losses.size());
  for (double l : r.epoch_losses) fold_f64(h, l);
  fold_u64(h, r.faults.worker_crashes);
  fold_u64(h, r.faults.flows_cancelled);
  fold_u64(h, r.faults.timed_out_rounds);
  fold_u64(h, r.checkpoints_taken);
  return h;
}

struct GoldenCase {
  std::string tag;
  std::function<std::unique_ptr<runtime::SyncModel>()> make;
  runtime::EngineConfig cfg;
  runtime::WorkloadSpec (*workload)() = models::tiny_mlp;
};

runtime::EngineConfig golden_cfg(std::size_t num_ps = 1) {
  runtime::EngineConfig cfg;
  cfg.num_workers = 4;
  cfg.max_epochs = 3;
  cfg.seed = 42;
  cfg.straggler_jitter = 0.1;
  cfg.cluster.num_ps = num_ps;
  return cfg;
}

std::vector<GoldenCase> golden_cases() {
  using kv::CompressionMode;
  std::vector<GoldenCase> cases;
  cases.push_back({"bsp",
                   [] { return std::make_unique<sync::BspSync>(); },
                   golden_cfg()});
  cases.push_back({"asp",
                   [] { return std::make_unique<sync::AsyncSync>(); },
                   golden_cfg()});
  cases.push_back({"ssp2",
                   [] {
                     return std::make_unique<sync::AsyncSync>(sync::ssp(2));
                   },
                   golden_cfg()});
  cases.push_back({"r2sp",
                   [] { return std::make_unique<sync::R2spSync>(); },
                   golden_cfg()});
  cases.push_back({"dssp",
                   [] {
                     return std::make_unique<sync::AsyncSync>(
                         sync::dssp(1, 3));
                   },
                   golden_cfg()});
  cases.push_back({"casp",
                   [] { return std::make_unique<sync::CaspSync>(); },
                   golden_cfg()});
  // The staleness bound never binds on the homogeneous config (asp, ssp2
  // and dssp share one parameter hash); one 4x-slow worker makes each
  // release rule shape the trajectory.
  runtime::EngineConfig hetero_cfg = golden_cfg();
  hetero_cfg.cluster.speed_factors = {1.0, 1.0, 1.0, 0.25};
  cases.push_back({"asp_hetero",
                   [] { return std::make_unique<sync::AsyncSync>(); },
                   hetero_cfg});
  cases.push_back({"ssp2_hetero",
                   [] {
                     return std::make_unique<sync::AsyncSync>(sync::ssp(2));
                   },
                   hetero_cfg});
  cases.push_back({"dssp_hetero",
                   [] {
                     return std::make_unique<sync::AsyncSync>(
                         sync::dssp(1, 3));
                   },
                   hetero_cfg});
  cases.push_back({"sync_switch",
                   [] { return std::make_unique<sync::SyncSwitchSync>(0.3); },
                   golden_cfg()});
  cases.push_back({"sharded_bsp_2ps",
                   [] {
                     return std::make_unique<sync::KvBspSync>(
                         sync::sharded_bsp());
                   },
                   golden_cfg(/*num_ps=*/2)});
  cases.push_back({"topk_ef",
                   [] {
                     return std::make_unique<sync::KvBspSync>(
                         sync::compressed_bsp(CompressionMode::TopK, 0.25,
                                              /*seed=*/99,
                                              /*error_feedback=*/true));
                   },
                   golden_cfg()});
  cases.push_back({"randomk",
                   [] {
                     return std::make_unique<sync::KvBspSync>(
                         sync::compressed_bsp(CompressionMode::RandomK, 0.25));
                   },
                   golden_cfg()});
  cases.push_back({"q8",
                   [] {
                     return std::make_unique<sync::KvBspSync>(
                         sync::quantized_bsp());
                   },
                   golden_cfg()});
  cases.push_back({"osp",
                   [] { return std::make_unique<core::OspSync>(); },
                   golden_cfg()});
  cases.push_back({"osp_fixed50",
                   [] {
                     core::OspOptions opt;
                     opt.fixed_budget_fraction = 0.5;
                     return std::make_unique<core::OspSync>(opt);
                   },
                   golden_cfg()});
  cases.push_back({"osp_ema",
                   [] {
                     core::OspOptions opt;
                     opt.use_ema_lgp = true;
                     return std::make_unique<core::OspSync>(opt);
                   },
                   golden_cfg()});
  cases.push_back({"osp_2ps_fixed50",
                   [] {
                     core::OspOptions opt;
                     opt.fixed_budget_fraction = 0.5;
                     return std::make_unique<core::OspSync>(opt);
                   },
                   golden_cfg(/*num_ps=*/2)});
  // PS failover: shard 0's primary crashes and its backup follows, so the
  // whole chain is down for 0.1 s; both hosts restart. Pins promotion,
  // the down-chain skip, re-push, re-broadcast and failback bit for bit.
  runtime::EngineConfig ps_chaos_cfg = golden_cfg(/*num_ps=*/2);
  ps_chaos_cfg.faults.crash_ps(0.3, /*ps=*/0, /*restart_after=*/0.3)
      .crash_ps(0.35, /*ps=*/1, /*restart_after=*/0.1);
  cases.push_back({"kvbsp_ps_chaos",
                   [] { return std::make_unique<sync::KvBspSync>(); },
                   ps_chaos_cfg});
  cases.push_back({"sharded_bsp_ps_chaos",
                   [] {
                     return std::make_unique<sync::KvBspSync>(
                         sync::sharded_bsp());
                   },
                   ps_chaos_cfg});
  cases.push_back({"osp_2ps_ps_chaos",
                   [] {
                     core::OspOptions opt;
                     opt.fixed_budget_fraction = 0.5;
                     return std::make_unique<core::OspSync>(
                         opt, runtime::SyncTimeouts{.rs_timeout_s = 0.3,
                                                    .ics_timeout_s = 0.3});
                   },
                   ps_chaos_cfg});
  // Worker faults under an RS deadline: worker 1 crashes and restarts,
  // worker 3 crashes for good, and a drop window loses pushes and answers.
  // Pins the deadline close, the partial aggregate, the late-push and
  // watchdog catch-up pulls of all three round-barrier owners: BSP, OSP's
  // RS and KV-core BSP (one shard, and one shard per PS).
  runtime::EngineConfig worker_chaos_cfg = golden_cfg();
  worker_chaos_cfg.faults.set_seed(17)
      .crash_worker(0.3, /*worker=*/1, /*restart_after=*/0.2)
      .crash_worker(0.6, /*worker=*/3)
      .drop_messages(0.8, 0.3, /*drop_prob=*/0.5);
  cases.push_back({"bsp_worker_chaos",
                   [] {
                     return std::make_unique<sync::BspSync>(
                         runtime::SyncTimeouts{.rs_timeout_s = 0.15});
                   },
                   worker_chaos_cfg});
  cases.push_back({"osp_worker_chaos",
                   [] {
                     core::OspOptions opt;
                     opt.fixed_budget_fraction = 0.5;
                     return std::make_unique<core::OspSync>(
                         opt, runtime::SyncTimeouts{.rs_timeout_s = 0.15,
                                                    .ics_timeout_s = 0.15});
                   },
                   worker_chaos_cfg});
  cases.push_back({"kvbsp_worker_chaos",
                   [] {
                     auto s = std::make_unique<sync::KvBspSync>();
                     s->set_timeouts({.rs_timeout_s = 0.15});
                     return s;
                   },
                   worker_chaos_cfg});
  runtime::EngineConfig worker_chaos_2ps_cfg = worker_chaos_cfg;
  worker_chaos_2ps_cfg.cluster.num_ps = 2;
  cases.push_back({"sharded_bsp_worker_chaos",
                   [] {
                     auto s =
                         std::make_unique<sync::KvBspSync>(sync::sharded_bsp());
                     s->set_timeouts({.rs_timeout_s = 0.15});
                     return s;
                   },
                   worker_chaos_2ps_cfg});
  // Conv2d, MaxPool2d and ReLU-after-conv numerics, which the tiny MLP never
  // reaches: two epochs of the ResNet50/CIFAR10 proxy under BSP and OSP.
  runtime::EngineConfig conv_cfg = golden_cfg();
  conv_cfg.max_epochs = 2;
  cases.push_back({"bsp_resnet50",
                   [] { return std::make_unique<sync::BspSync>(); }, conv_cfg,
                   models::resnet50_cifar10});
  cases.push_back({"osp_fixed50_resnet50",
                   [] {
                     core::OspOptions opt;
                     opt.fixed_budget_fraction = 0.5;
                     return std::make_unique<core::OspSync>(opt);
                   },
                   conv_cfg, models::resnet50_cifar10});
  // Embedding, SelfAttention, LayerNorm and SpanHead numerics: two epochs
  // of the BERTbase/SQuAD proxy under the same pair.
  cases.push_back({"bsp_bertbase",
                   [] { return std::make_unique<sync::BspSync>(); }, conv_cfg,
                   models::bertbase_squad});
  cases.push_back({"osp_fixed50_bertbase",
                   [] {
                     core::OspOptions opt;
                     opt.fixed_budget_fraction = 0.5;
                     return std::make_unique<core::OspSync>(opt);
                   },
                   conv_cfg, models::bertbase_squad});
  return cases;
}

struct GoldenHashes {
  std::uint64_t params = 0;
  std::uint64_t result = 0;
};

GoldenHashes run_golden_case(const GoldenCase& c, std::size_t threads) {
  util::ThreadPool pool(threads);
  util::ThreadPool::ScopedGlobal guard(pool);
  const runtime::WorkloadSpec spec = c.workload();
  auto sync = c.make();
  runtime::Engine engine(spec, c.cfg, *sync);
  const runtime::RunResult result = engine.run();
  return {hash_params(engine.global_params()), hash_result(result)};
}

std::string golden_file_path() {
  return std::string(OSP_GOLDEN_DIR) + "/sync_goldens.txt";
}

std::map<std::string, GoldenHashes> load_goldens() {
  std::map<std::string, GoldenHashes> out;
  std::ifstream in(golden_file_path());
  std::string tag, params_hex, result_hex;
  while (in >> tag >> params_hex >> result_hex) {
    GoldenHashes g;
    g.params = std::stoull(params_hex, nullptr, 16);
    g.result = std::stoull(result_hex, nullptr, 16);
    out[tag] = g;
  }
  return out;
}

TEST(GoldenBitIdentity, AllSyncModelsMatchMainAt128Threads) {
  const bool update = std::getenv("OSP_UPDATE_GOLDENS") != nullptr;
  const auto cases = golden_cases();
  std::map<std::string, GoldenHashes> goldens;
  if (!update) {
    goldens = load_goldens();
    ASSERT_EQ(goldens.size(), cases.size())
        << "golden file out of sync with the case list; regenerate with "
           "OSP_UPDATE_GOLDENS=1";
  }
  std::ostringstream regenerated;
  for (const GoldenCase& c : cases) {
    const GoldenHashes ref = run_golden_case(c, 1);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      const GoldenHashes got = run_golden_case(c, threads);
      EXPECT_EQ(got.params, ref.params)
          << c.tag << ": params diverged at " << threads << " threads";
      EXPECT_EQ(got.result, ref.result)
          << c.tag << ": RunResult diverged at " << threads << " threads";
    }
    if (update) {
      regenerated << c.tag << ' ' << std::hex << ref.params << ' '
                  << ref.result << std::dec << '\n';
      continue;
    }
    ASSERT_TRUE(goldens.count(c.tag)) << "no golden for " << c.tag;
    EXPECT_EQ(ref.params, goldens[c.tag].params)
        << c.tag << ": final params differ from the pre-refactor golden";
    EXPECT_EQ(ref.result, goldens[c.tag].result)
        << c.tag << ": RunResult differs from the pre-refactor golden";
  }
  if (update) {
    std::ofstream out(golden_file_path());
    ASSERT_TRUE(out.good()) << "cannot write " << golden_file_path();
    out << regenerated.str();
    std::cout << "regenerated " << golden_file_path() << "\n";
  }
}

TEST(GoldenBitIdentity, WorkerChaosReachesDeadlineAndCatchUp) {
  // The worker-chaos goldens pin the deadline and catch-up paths only if
  // their schedule actually reaches them.
  std::size_t checked = 0;
  for (const GoldenCase& c : golden_cases()) {
    if (!c.tag.ends_with("_worker_chaos")) continue;
    ++checked;
    const runtime::WorkloadSpec spec = c.workload();
    auto sync = c.make();
    runtime::Engine engine(spec, c.cfg, *sync);
    const runtime::RunResult r = engine.run();
    EXPECT_GE(r.faults.timed_out_rounds, 1u) << c.tag;
    EXPECT_GE(r.faults.catch_up_pulls, 1u) << c.tag;
    EXPECT_EQ(r.faults.worker_crashes, 2u) << c.tag;
    EXPECT_GT(r.faults.messages_dropped, 0u) << c.tag;
  }
  EXPECT_EQ(checked, 4u);
}

TEST(CrossModel, AllModelsReachSameSampleCount) {
  // Every sync model must process exactly max_epochs over each shard.
  const auto spec = models::tiny_mlp();
  const auto cfg = sync_config(3, 3, 0.1);
  const double expected = 3.0 * 3.0 * 10.0 * 16.0;  // shard 170→10 batches
  sync::BspSync bsp;
  sync::AsyncSync asp;
  sync::R2spSync r2sp;
  sync::AsyncSync ssp(sync::ssp(3));
  core::OspSync osp;
  EXPECT_DOUBLE_EQ(run_model(bsp, cfg, spec).total_samples, expected);
  EXPECT_DOUBLE_EQ(run_model(asp, cfg, spec).total_samples, expected);
  EXPECT_DOUBLE_EQ(run_model(r2sp, cfg, spec).total_samples, expected);
  EXPECT_DOUBLE_EQ(run_model(ssp, cfg, spec).total_samples, expected);
  EXPECT_DOUBLE_EQ(run_model(osp, cfg, spec).total_samples, expected);
}

// -------------------------------------------------- composed KV pipelines

TEST(KvBspComposition, TelemetryMatchesComposedPipeline) {
  // The acceptance stack — GIB ∘ top-k ∘ int8 as filter stages — must
  // report telemetry wire bytes equal to the composed accounting: kept
  // elements (top-k replaces the GIB block bytes) quartered by int8, the
  // GIB bitmap + kept indices on the index channel, the fp32 scale in
  // meta. KvBspSync uses one self-consistent proxy byte scale, so the
  // prediction is exact, per round, per worker.
  const auto spec = models::tiny_mlp();
  runtime::EngineConfig cfg;
  cfg.num_workers = 4;
  cfg.max_epochs = 2;
  cfg.seed = 42;
  cfg.record_telemetry = true;
  sync::KvBspOptions opt;
  opt.gib_keep_fraction = 0.5;
  opt.topk_keep_fraction = 0.25;
  opt.quantize_int8 = true;
  sync::KvBspSync kvbsp(opt);
  runtime::Engine engine(spec, cfg, kvbsp);
  const runtime::RunResult r = engine.run();

  EXPECT_EQ(kvbsp.name(), "KvBSP[gib∘topk∘q8]");
  const std::size_t numel = engine.global_params().size();
  const double kept = static_cast<double>(std::max<long long>(
      1, std::llround(0.25 * static_cast<double>(numel))));
  const double bitmap =
      4.0 + static_cast<double>((engine.num_blocks() + 7) / 8);
  const double per_push = kept * 4.0 / 4.0    // values: top-k kept, int8'd
                          + bitmap + kept * 4.0  // GIB bitmap + indices
                          + 4.0                  // the fp32 quant scale
                          + kv::kFrameOverheadBytes;  // serialization frame
  ASSERT_FALSE(r.rounds.empty());
  for (const auto& rec : r.rounds) {
    EXPECT_DOUBLE_EQ(rec.important_bytes, 4.0 * per_push);
  }
  EXPECT_DOUBLE_EQ(kvbsp.last_round_push_bytes(), 4.0 * per_push);
  EXPECT_GT(r.best_metric, 0.0);
}

TEST(KvBspComposition, GibAloneChargesSelectedBlockBytes) {
  const auto spec = models::tiny_mlp();
  runtime::EngineConfig cfg;
  cfg.num_workers = 2;
  cfg.max_epochs = 2;
  cfg.seed = 42;
  cfg.record_telemetry = true;
  sync::KvBspOptions opt;
  opt.gib_keep_fraction = 0.5;
  sync::KvBspSync kvbsp(opt);
  runtime::Engine engine(spec, cfg, kvbsp);
  const runtime::RunResult r = engine.run();

  EXPECT_EQ(kvbsp.name(), "KvBSP[gib]");
  const double dense = 4.0 * static_cast<double>(engine.global_params().size());
  const double bitmap =
      4.0 + static_cast<double>((engine.num_blocks() + 7) / 8);
  ASSERT_FALSE(r.rounds.empty());
  // Round 1 ships everything (first selection is all-important); later
  // rounds drop at least one block under the 50 % byte budget (greedy
  // always keeps the top block, so the floor stays above the bitmap).
  EXPECT_DOUBLE_EQ(r.rounds.front().important_bytes,
                   2.0 * (dense + bitmap + kv::kFrameOverheadBytes));
  for (std::size_t i = 1; i < r.rounds.size(); ++i) {
    EXPECT_LT(r.rounds[i].important_bytes, r.rounds.front().important_bytes);
    EXPECT_GT(r.rounds[i].important_bytes, 2.0 * bitmap);
  }
}

}  // namespace
}  // namespace osp
