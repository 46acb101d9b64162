// Checkpoint & deterministic-resume suite.
//
// The headline guarantee under test: checkpoint a run at iteration k, kill
// it, resume from the file — and the remainder of the run is bit-identical
// to a run that was never interrupted. "Bit-identical" means every
// RunResult field (times, losses, metrics, curve, fault accounting) and
// every final global parameter compares exactly equal, for every sync
// model in the repo.
//
// Three runs per scenario:
//   A: checkpoint-enabled, uninterrupted (snapshots at iters 5, 10, 15, 20)
//   B: identical, but halts after writing the first checkpoint (models a
//      preempted job)
//   C: resumes from B's file
// and the assertions are A ≡ C. The serde layer itself is property-tested
// (load∘save is byte-stable) and attacked (truncation, bit flips, version
// skew, trailing garbage).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/osp_sync.hpp"
#include "models/zoo.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/engine.hpp"
#include "sync/async.hpp"
#include "sync/bsp.hpp"
#include "sync/kv_bsp.hpp"
#include "sync/r2sp.hpp"
#include "util/check.hpp"
#include "util/serde.hpp"

namespace osp {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

// ---- serde layer ----

TEST(Serde, ScalarAndArrayRoundTrip) {
  util::serde::Writer w;
  w.u8(7);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.f32(-1.25f);
  w.f64(3.141592653589793);
  w.boolean(true);
  w.boolean(false);
  w.str("hello serde");
  w.f32_vec(std::vector<float>{1.0f, -0.0f, 2.5e-38f});
  w.f64_vec(std::vector<double>{-7.0, 1e300});
  w.u64_vec(std::vector<std::uint64_t>{1, 2, 3});
  w.size_vec(std::vector<std::size_t>{42});
  w.bool_vec(std::vector<bool>{true, false, true});
  w.bytes(std::vector<std::uint8_t>{9, 8, 7});

  util::serde::Reader r(w.data());
  EXPECT_EQ(r.u8(), 7u);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.f32(), -1.25f);
  EXPECT_EQ(r.f64(), 3.141592653589793);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.str(), "hello serde");
  EXPECT_EQ(r.f32_vec(), (std::vector<float>{1.0f, -0.0f, 2.5e-38f}));
  EXPECT_EQ(r.f64_vec(), (std::vector<double>{-7.0, 1e300}));
  EXPECT_EQ(r.u64_vec(), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(r.size_vec(), (std::vector<std::size_t>{42}));
  EXPECT_EQ(r.bool_vec(), (std::vector<bool>{true, false, true}));
  EXPECT_EQ(r.bytes(), (std::vector<std::uint8_t>{9, 8, 7}));
  EXPECT_TRUE(r.done());
  r.expect_done();
}

TEST(Serde, ReaderRejectsUnderflow) {
  const std::vector<std::uint8_t> three{1, 2, 3};
  util::serde::Reader r(three);
  EXPECT_THROW((void)r.u64(), util::CheckError);
}

TEST(Serde, ReaderRejectsImplausibleArrayCount) {
  util::serde::Writer w;
  w.u64(0xFFFFFFFFFFFFull);  // claims ~2.8e14 floats, none present
  util::serde::Reader r(w.data());
  EXPECT_THROW((void)r.f32_vec(), util::CheckError);
}

TEST(Serde, ReaderRejectsTrailingGarbage) {
  util::serde::Writer w;
  w.u32(5);
  w.u8(0);
  util::serde::Reader r(w.data());
  EXPECT_EQ(r.u32(), 5u);
  EXPECT_THROW(r.expect_done(), util::CheckError);
}

class SerdeFile : public ::testing::Test {
 protected:
  SerdeFile() : file_(temp_path("osp_serde_file.bin")) {
    util::serde::Writer w;
    w.str("payload under test");
    w.f64_vec(std::vector<double>{1.5, -2.5, 3.5});
    util::serde::write_file(file_.path, "TESTMGC1", 3, w.data());
  }

  TempFile file_;
};

TEST_F(SerdeFile, RoundTrips) {
  const auto f = util::serde::read_file(file_.path, "TESTMGC1", 3);
  EXPECT_EQ(f.version, 3u);
  util::serde::Reader r(f.payload);
  EXPECT_EQ(r.str(), "payload under test");
  EXPECT_EQ(r.f64_vec(), (std::vector<double>{1.5, -2.5, 3.5}));
  r.expect_done();
}

TEST_F(SerdeFile, RejectsWrongMagic) {
  EXPECT_THROW((void)util::serde::read_file(file_.path, "OTHERMAG", 3),
               util::CheckError);
}

TEST_F(SerdeFile, RejectsNewerVersion) {
  EXPECT_THROW((void)util::serde::read_file(file_.path, "TESTMGC1", 2),
               util::CheckError);
}

TEST_F(SerdeFile, RejectsTruncation) {
  const auto size = std::filesystem::file_size(file_.path);
  std::filesystem::resize_file(file_.path, size - 5);
  EXPECT_THROW((void)util::serde::read_file(file_.path, "TESTMGC1", 3),
               util::CheckError);
}

TEST_F(SerdeFile, RejectsTrailingBytes) {
  std::ofstream out(file_.path, std::ios::binary | std::ios::app);
  out << "extra";
  out.close();
  EXPECT_THROW((void)util::serde::read_file(file_.path, "TESTMGC1", 3),
               util::CheckError);
}

TEST_F(SerdeFile, RejectsBitFlip) {
  // Flip one payload bit; the CRC must catch it.
  std::fstream io(file_.path,
                  std::ios::binary | std::ios::in | std::ios::out);
  io.seekp(8 + 12 + 3);  // inside the payload
  char byte = 0;
  io.seekg(8 + 12 + 3);
  io.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x10);
  io.seekp(8 + 12 + 3);
  io.write(&byte, 1);
  io.close();
  EXPECT_THROW((void)util::serde::read_file(file_.path, "TESTMGC1", 3),
               util::CheckError);
}

TEST(Serde, MissingFileThrows) {
  EXPECT_THROW(
      (void)util::serde::read_file(temp_path("osp_no_such_serde.bin"),
                                   "TESTMGC1", 1),
      util::CheckError);
}

// ---- run checkpoints ----

using SyncFactory = std::function<std::unique_ptr<runtime::SyncModel>()>;

runtime::EngineConfig golden_config() {
  runtime::EngineConfig cfg;
  cfg.num_workers = 4;
  cfg.max_epochs = 3;  // tiny_mlp: 8 batches/epoch/worker -> 24 iterations
  cfg.seed = 42;
  cfg.straggler_jitter = 0.1;
  return cfg;
}

struct RunOutput {
  runtime::RunResult result;
  std::vector<float> params;
};

RunOutput run_model(const SyncFactory& make, const runtime::EngineConfig& cfg) {
  const runtime::WorkloadSpec spec = models::tiny_mlp();
  auto sync = make();
  runtime::Engine engine(spec, cfg, *sync);
  RunOutput out;
  out.result = engine.run();
  const auto params = engine.global_params();
  out.params.assign(params.begin(), params.end());
  return out;
}

/// Every RunResult field must match exactly — doubles included: resumed
/// runs are bit-identical, not approximately equal.
void expect_same_result(const runtime::RunResult& a,
                        const runtime::RunResult& c) {
  EXPECT_EQ(a.sync_name, c.sync_name);
  EXPECT_EQ(a.workload_name, c.workload_name);
  EXPECT_EQ(a.total_time_s, c.total_time_s);
  EXPECT_EQ(a.total_samples, c.total_samples);
  EXPECT_EQ(a.throughput, c.throughput);
  EXPECT_EQ(a.best_metric, c.best_metric);
  EXPECT_EQ(a.final_loss, c.final_loss);
  EXPECT_EQ(a.mean_bct_s, c.mean_bct_s);
  EXPECT_EQ(a.mean_bst_s, c.mean_bst_s);
  EXPECT_EQ(a.steady_bst_s, c.steady_bst_s);
  EXPECT_EQ(a.p99_bst_s, c.p99_bst_s);
  EXPECT_EQ(a.steady_throughput, c.steady_throughput);
  EXPECT_EQ(a.iters_to_target.has_value(), c.iters_to_target.has_value());
  if (a.iters_to_target && c.iters_to_target) {
    EXPECT_EQ(*a.iters_to_target, *c.iters_to_target);
  }
  EXPECT_EQ(a.time_to_target_s.has_value(), c.time_to_target_s.has_value());
  if (a.time_to_target_s && c.time_to_target_s) {
    EXPECT_EQ(*a.time_to_target_s, *c.time_to_target_s);
  }
  ASSERT_EQ(a.curve.size(), c.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].time_s, c.curve[i].time_s);
    EXPECT_EQ(a.curve[i].samples, c.curve[i].samples);
    EXPECT_EQ(a.curve[i].metric, c.curve[i].metric);
    EXPECT_EQ(a.curve[i].loss, c.curve[i].loss);
  }
  EXPECT_EQ(a.epoch_losses, c.epoch_losses);
  EXPECT_EQ(a.faults.worker_crashes, c.faults.worker_crashes);
  EXPECT_EQ(a.faults.worker_restarts, c.faults.worker_restarts);
  EXPECT_EQ(a.faults.worker_pauses, c.faults.worker_pauses);
  EXPECT_EQ(a.faults.flows_cancelled, c.faults.flows_cancelled);
  EXPECT_EQ(a.faults.messages_dropped, c.faults.messages_dropped);
  EXPECT_EQ(a.faults.messages_delayed, c.faults.messages_delayed);
  EXPECT_EQ(a.faults.timed_out_rounds, c.faults.timed_out_rounds);
  EXPECT_EQ(a.faults.ics_rounds_abandoned, c.faults.ics_rounds_abandoned);
  EXPECT_EQ(a.faults.catch_up_pulls, c.faults.catch_up_pulls);
  EXPECT_EQ(a.faults.ps_crashes, c.faults.ps_crashes);
  EXPECT_EQ(a.faults.ps_restarts, c.faults.ps_restarts);
  EXPECT_EQ(a.faults.ps_promotions, c.faults.ps_promotions);
  EXPECT_EQ(a.faults.replica_catchup_bytes, c.faults.replica_catchup_bytes);
  EXPECT_EQ(a.faults.worker_downtime_s, c.faults.worker_downtime_s);
  EXPECT_EQ(a.checkpoints_taken, c.checkpoints_taken);
  EXPECT_EQ(a.halted_at_checkpoint, c.halted_at_checkpoint);
}

/// Serde property: deserialize(file) → serialize must reproduce the file's
/// payload byte for byte.
void expect_byte_stable(const std::string& path) {
  const auto file = util::serde::read_file(path, "OSPRUN01", 2);
  util::serde::Reader r(file.payload);
  const runtime::RunCheckpoint ckpt = runtime::RunCheckpoint::deserialize(r);
  r.expect_done();
  util::serde::Writer w;
  ckpt.serialize(w);
  EXPECT_EQ(w.take(), file.payload);
}

/// The A/B/C scenario described in the file header; `every_iters` and
/// `checkpoints` (run A's snapshot count) move the snapshots. `inspect`
/// sees the checkpoint run B halted at.
void expect_resume_equivalent(
    const SyncFactory& make, const runtime::EngineConfig& base,
    const std::string& tag, std::size_t every_iters = 5,
    std::size_t checkpoints = 4,
    const std::function<void(const runtime::RunCheckpoint&)>& inspect = {}) {
  TempFile file(temp_path("osp_resume_" + tag + ".bin"));

  runtime::EngineConfig cfg_a = base;
  cfg_a.checkpoint.every_iters = every_iters;
  const RunOutput a = run_model(make, cfg_a);
  EXPECT_EQ(a.result.checkpoints_taken, checkpoints) << tag;
  EXPECT_FALSE(a.result.halted_at_checkpoint);

  runtime::EngineConfig cfg_b = base;
  cfg_b.checkpoint.every_iters = every_iters;
  cfg_b.checkpoint.path = file.path;
  cfg_b.checkpoint.halt_after_checkpoint = true;
  const RunOutput b = run_model(make, cfg_b);
  EXPECT_TRUE(b.result.halted_at_checkpoint);
  EXPECT_EQ(b.result.checkpoints_taken, 1u) << tag;
  expect_byte_stable(file.path);
  if (inspect) inspect(runtime::RunCheckpoint::load(file.path));

  runtime::EngineConfig cfg_c = base;
  cfg_c.checkpoint.every_iters = every_iters;
  cfg_c.checkpoint.resume_from = file.path;
  const RunOutput c = run_model(make, cfg_c);

  expect_same_result(a.result, c.result);
  ASSERT_EQ(a.params.size(), c.params.size());
  EXPECT_EQ(a.params, c.params) << tag << ": resumed params diverged";
}

TEST(ResumeEquivalence, Bsp) {
  expect_resume_equivalent(
      [] { return std::make_unique<sync::BspSync>(); }, golden_config(),
      "bsp");
}

TEST(ResumeEquivalence, BspWithMomentum) {
  runtime::EngineConfig cfg = golden_config();
  cfg.momentum = 0.9;  // exercises optimizer velocity serialization
  expect_resume_equivalent(
      [] { return std::make_unique<sync::BspSync>(); }, cfg, "bsp_momentum");
}

TEST(ResumeEquivalence, Asp) {
  expect_resume_equivalent(
      [] { return std::make_unique<sync::AsyncSync>(); }, golden_config(),
      "asp");
}

TEST(ResumeEquivalence, Ssp) {
  expect_resume_equivalent(
      [] { return std::make_unique<sync::AsyncSync>(sync::ssp(2)); },
      golden_config(), "ssp");
}

TEST(ResumeEquivalence, DsspAdaptedBoundCrossesCheckpoint) {
  // One 4x-slow worker makes the spread hit the bound, so DSSP(1..3) has
  // tightened by the first snapshot, taken after epoch 1 (8 iterations):
  // the resumed run must continue from the adapted bound, not from 3.
  runtime::EngineConfig cfg = golden_config();
  cfg.cluster.speed_factors = {1.0, 1.0, 1.0, 0.25};
  expect_resume_equivalent(
      [] { return std::make_unique<sync::AsyncSync>(sync::dssp(1, 3)); },
      cfg, "dssp", /*every_iters=*/10, /*checkpoints=*/2,
      [](const runtime::RunCheckpoint& ckpt) {
        sync::AsyncSync snapshot(sync::dssp(1, 3));
        util::serde::Reader r(ckpt.sync_state);
        snapshot.load_state(r);
        EXPECT_LT(snapshot.current_bound(), 3u);
      });
}

TEST(ResumeEquivalence, R2sp) {
  expect_resume_equivalent(
      [] { return std::make_unique<sync::R2spSync>(); }, golden_config(),
      "r2sp");
}

TEST(ResumeEquivalence, ShardedBsp) {
  runtime::EngineConfig cfg = golden_config();
  cfg.cluster.num_ps = 2;
  expect_resume_equivalent(
      [] { return std::make_unique<sync::KvBspSync>(sync::sharded_bsp()); },
      cfg, "sharded_bsp");
}

TEST(ResumeEquivalence, OspDefault) {
  expect_resume_equivalent(
      [] { return std::make_unique<core::OspSync>(); }, golden_config(),
      "osp");
}

TEST(ResumeEquivalence, OspFixedBudget) {
  // A fixed ICS budget keeps overlapped ICS rounds in flight around the
  // drain barrier, so the snapshot has real RS/ICS state to drain.
  expect_resume_equivalent(
      [] {
        core::OspOptions opt;
        opt.fixed_budget_fraction = 0.5;
        return std::make_unique<core::OspSync>(opt);
      },
      golden_config(), "osp_fixed");
}

TEST(ResumeEquivalence, OspEmaLgp) {
  expect_resume_equivalent(
      [] {
        core::OspOptions opt;
        opt.use_ema_lgp = true;
        opt.fixed_budget_fraction = 0.5;
        return std::make_unique<core::OspSync>(opt);
      },
      golden_config(), "osp_ema");
}

TEST(ResumeEquivalence, CompressedBspWithErrorFeedback) {
  expect_resume_equivalent(
      [] {
        return std::make_unique<sync::KvBspSync>(
            sync::compressed_bsp(kv::CompressionMode::TopK, 0.25, /*seed=*/99,
                                 /*error_feedback=*/true));
      },
      golden_config(), "compressed_ef");
}

// ---- RS deadlines across a snapshot ----
// With rs_timeout_s > 0 every barrier keeps a timer armed from each push
// and close. A snapshot fences it and a resumed run starts without one, so
// the resumed run equals the uninterrupted one: with no fault, with worker
// 1 down across the first snapshot (at iteration 5, t ≈ 0.32 s), and with
// worker 0 paused across it, which holds the first round after the
// snapshot open past the deadline of the timer armed before it.

void expect_deadline_resume_equivalent(const SyncFactory& make,
                                       const std::string& tag) {
  for (const char* fault : {"none", "crash", "pause"}) {
    SCOPED_TRACE(fault);
    runtime::EngineConfig cfg = golden_config();
    if (fault == std::string("crash")) {
      cfg.faults.crash_worker(0.2, 1, /*restart_after=*/0.2);
    } else if (fault == std::string("pause")) {
      cfg.faults.pause_worker(0.3, 0, /*duration=*/0.5);
    }
    expect_resume_equivalent(make, cfg, tag + "_" + fault);
  }
}

TEST(ResumeEquivalence, BspWithDeadline) {
  expect_deadline_resume_equivalent(
      [] {
        return std::make_unique<sync::BspSync>(
            runtime::SyncTimeouts{.rs_timeout_s = 0.3});
      },
      "bsp_deadline");
}

TEST(ResumeEquivalence, OspWithDeadline) {
  expect_deadline_resume_equivalent(
      [] {
        core::OspOptions opt;
        opt.fixed_budget_fraction = 0.5;
        return std::make_unique<core::OspSync>(
            opt, runtime::SyncTimeouts{.rs_timeout_s = 0.3,
                                       .ics_timeout_s = 0.3});
      },
      "osp_deadline");
}

TEST(ResumeEquivalence, KvBspWithDeadline) {
  expect_deadline_resume_equivalent(
      [] {
        auto s = std::make_unique<sync::KvBspSync>();
        s->set_timeouts({.rs_timeout_s = 0.3});
        return s;
      },
      "kvbsp_deadline");
}

// The drain waits for no timer: with a deadline, a checkpointed BSP run
// takes as long as, and trains the same parameters as, the run without
// checkpoints, with or without a pause to put the run under the fault
// rules. The watchdog armed at each close is still pending when the last
// worker parks. OSP's drain also waits for its in-flight ICS rounds,
// which costs the same with a deadline as without.
TEST(CheckpointDrain, DeadlineTimerDoesNotDelayTheSnapshot) {
  const auto run = [](const SyncFactory& make,
                      const runtime::EngineConfig& base, bool ckpt) {
    runtime::EngineConfig cfg = base;
    cfg.checkpoint.every_iters = ckpt ? 8 : 0;
    const RunOutput out = run_model(make, cfg);
    EXPECT_EQ(out.result.checkpoints_taken, ckpt ? 2u : 0u);
    return out;
  };
  const auto bsp = [](double rs_timeout_s) -> SyncFactory {
    return [rs_timeout_s] {
      return std::make_unique<sync::BspSync>(
          runtime::SyncTimeouts{.rs_timeout_s = rs_timeout_s});
    };
  };
  const auto osp = [](double rs_timeout_s) -> SyncFactory {
    return [rs_timeout_s] {
      core::OspOptions opt;
      opt.fixed_budget_fraction = 0.5;
      return std::make_unique<core::OspSync>(
          opt, runtime::SyncTimeouts{.rs_timeout_s = rs_timeout_s});
    };
  };
  runtime::EngineConfig paused = golden_config();
  paused.faults.pause_worker(1.2, 0, 0.001);
  for (const runtime::EngineConfig& cfg : {golden_config(), paused}) {
    const RunOutput plain = run(bsp(0.3), cfg, false);
    const RunOutput checkpointed = run(bsp(0.3), cfg, true);
    EXPECT_EQ(checkpointed.result.total_time_s, plain.result.total_time_s);
    EXPECT_EQ(checkpointed.params, plain.params);
  }
  const double osp_cost =
      run(osp(0.3), golden_config(), true).result.total_time_s -
      run(osp(0.3), golden_config(), false).result.total_time_s;
  const double osp_cost_without_deadline =
      run(osp(0.0), golden_config(), true).result.total_time_s -
      run(osp(0.0), golden_config(), false).result.total_time_s;
  EXPECT_GT(osp_cost_without_deadline, 0.0);
  EXPECT_NEAR(osp_cost, osp_cost_without_deadline, 1e-9);
}

// ---- serde round-trip across randomized configs (property test) ----

TEST(CheckpointProperty, ByteStableAcrossRandomizedConfigs) {
  struct Case {
    std::size_t workers;
    std::uint64_t seed;
    double jitter;
    std::size_t every;
    double momentum;
  };
  const Case cases[] = {
      {2, 7, 0.0, 3, 0.0},
      {3, 1234, 0.25, 4, 0.9},
      {4, 42, 0.1, 6, 0.5},
  };
  const SyncFactory factories[] = {
      [] { return std::make_unique<sync::BspSync>(); },
      [] {
        core::OspOptions opt;
        opt.fixed_budget_fraction = 0.5;
        return std::make_unique<core::OspSync>(opt);
      },
  };
  std::size_t idx = 0;
  for (const Case& cs : cases) {
    for (const SyncFactory& make : factories) {
      runtime::EngineConfig cfg;
      cfg.num_workers = cs.workers;
      cfg.max_epochs = 3;
      cfg.seed = cs.seed;
      cfg.straggler_jitter = cs.jitter;
      cfg.momentum = cs.momentum;
      TempFile file(
          temp_path("osp_prop_" + std::to_string(idx++) + ".bin"));
      cfg.checkpoint.every_iters = cs.every;
      cfg.checkpoint.path = file.path;
      cfg.checkpoint.halt_after_checkpoint = true;
      const RunOutput halted = run_model(make, cfg);
      ASSERT_TRUE(halted.result.halted_at_checkpoint);
      expect_byte_stable(file.path);
    }
  }
}

// ---- checkpointing leaves a run's final parameters untouched ----

TEST(CheckpointTransparency, BarrierModelsReachIdenticalParams) {
  // The drain barrier re-synchronizes the cluster in *time*, but for
  // barrier-per-iteration models it cannot change any gradient or update:
  // a plain run and a checkpoint-enabled run end at identical parameters
  // (timing metrics legitimately differ — the drain holds fast workers).
  const SyncFactory factories[] = {
      [] { return std::make_unique<sync::BspSync>(); },
      [] { return std::make_unique<sync::KvBspSync>(sync::sharded_bsp()); },
  };
  for (const SyncFactory& make : factories) {
    const RunOutput plain = run_model(make, golden_config());
    runtime::EngineConfig cfg = golden_config();
    cfg.checkpoint.every_iters = 5;
    const RunOutput ckpt = run_model(make, cfg);
    EXPECT_EQ(plain.result.checkpoints_taken, 0u);
    EXPECT_EQ(ckpt.result.checkpoints_taken, 4u);
    EXPECT_EQ(plain.params, ckpt.params);
    EXPECT_EQ(plain.result.total_samples, ckpt.result.total_samples);
  }
}

// ---- guard rails ----

TEST(CheckpointGuards, RefusesMismatchedResume) {
  TempFile file(temp_path("osp_resume_mismatch.bin"));
  runtime::EngineConfig cfg = golden_config();
  cfg.checkpoint.every_iters = 5;
  cfg.checkpoint.path = file.path;
  cfg.checkpoint.halt_after_checkpoint = true;
  (void)run_model([] { return std::make_unique<sync::BspSync>(); }, cfg);

  // Wrong sync model.
  {
    runtime::EngineConfig bad = golden_config();
    bad.checkpoint.resume_from = file.path;
    const runtime::WorkloadSpec spec = models::tiny_mlp();
    sync::AsyncSync asp;
    runtime::Engine engine(spec, bad, asp);
    EXPECT_THROW((void)engine.run(), util::CheckError);
  }
  // Wrong worker count.
  {
    runtime::EngineConfig bad = golden_config();
    bad.num_workers = 3;
    bad.checkpoint.resume_from = file.path;
    const runtime::WorkloadSpec spec = models::tiny_mlp();
    sync::BspSync bsp;
    runtime::Engine engine(spec, bad, bsp);
    EXPECT_THROW((void)engine.run(), util::CheckError);
  }
  // Corrupted file.
  {
    std::fstream io(file.path,
                    std::ios::binary | std::ios::in | std::ios::out);
    io.seekp(8 + 12 + 100);
    char byte = 0;
    io.seekg(8 + 12 + 100);
    io.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    io.seekp(8 + 12 + 100);
    io.write(&byte, 1);
    io.close();
    runtime::EngineConfig bad = golden_config();
    bad.checkpoint.resume_from = file.path;
    const runtime::WorkloadSpec spec = models::tiny_mlp();
    sync::BspSync bsp;
    runtime::Engine engine(spec, bad, bsp);
    EXPECT_THROW((void)engine.run(), util::CheckError);
  }
}

TEST(CheckpointGuards, DisabledPolicyTakesNoCheckpoints) {
  const RunOutput out =
      run_model([] { return std::make_unique<sync::BspSync>(); },
                golden_config());
  EXPECT_EQ(out.result.checkpoints_taken, 0u);
  EXPECT_FALSE(out.result.halted_at_checkpoint);
}

}  // namespace
}  // namespace osp
