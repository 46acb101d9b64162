// Extending the library: writing your own synchronization model.
//
// Implements Local SGD (periodic model averaging): workers run K local
// iterations between synchronizations, then push full models for averaging
// — a popular communication-reduction scheme, built entirely on the public
// SyncModel API. Compares it against BSP and OSP.
//
//   ./build/examples/custom_sync_model [local_steps] [epochs]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/osp_sync.hpp"
#include "models/zoo.hpp"
#include "runtime/engine.hpp"
#include "sync/bsp.hpp"
#include "util/vec_math.hpp"

namespace {

using namespace osp;

/// Local SGD: each worker applies its own gradient locally; every
/// `local_steps` iterations all workers synchronize by pushing their full
/// parameter vectors to the PS, which averages them and broadcasts the
/// result (with a barrier, like BSP but K× less often).
class LocalSgdSync : public runtime::SyncModel {
 public:
  explicit LocalSgdSync(std::size_t local_steps)
      : local_steps_(local_steps) {}

  [[nodiscard]] std::string name() const override {
    return "LocalSGD(k=" + std::to_string(local_steps_) + ")";
  }

  void attach(runtime::Engine& eng) override {
    SyncModel::attach(eng);
    arrived_ = 0;
  }

  void on_gradient_ready(std::size_t worker) override {
    runtime::Engine& e = eng();
    // Local step: apply this worker's gradient to its own replica.
    util::axpy(static_cast<float>(-e.current_lr()),
               e.worker_gradient(worker), e.worker_params(worker));
    const bool sync_round =
        (e.worker_iteration(worker) + 1) % local_steps_ == 0;
    if (!sync_round) {
      // Keep training locally; costs no communication.
      e.finish_sync(worker);
      return;
    }
    // Synchronization round: push the whole model for averaging.
    e.worker_transfer(worker, e.cluster().route_to_ps(worker),
                      e.model_bytes(), [this] { on_push_arrived(); });
  }

 private:
  void on_push_arrived() {
    runtime::Engine& e = eng();
    if (++arrived_ < e.num_workers()) return;
    arrived_ = 0;
    // Average the replicas into the global model.
    auto global = e.global_params();
    util::fill(global, 0.0f);
    const float scale = 1.0f / static_cast<float>(e.num_workers());
    for (std::size_t w = 0; w < e.num_workers(); ++w) {
      util::axpy(scale, e.worker_params(w), global);
    }
    e.ps_submit(e.ps_apply_delay(e.model_bytes(), 3.0), [this] {
      runtime::Engine& en = eng();
      for (std::size_t w = 0; w < en.num_workers(); ++w) {
        en.worker_transfer(w, en.cluster().route_from_ps(w),
                           en.model_bytes(), [this, w] {
                             runtime::Engine& e2 = eng();
                             util::copy(e2.global_params(),
                                        e2.worker_params(w));
                             e2.finish_sync(w);
                           });
      }
    });
  }

  std::size_t local_steps_;
  std::size_t arrived_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::size_t local_steps =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 4;
  const std::size_t epochs =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 15;

  const runtime::WorkloadSpec spec = models::resnet50_cifar10();
  runtime::EngineConfig config;
  config.num_workers = 8;
  config.max_epochs = epochs;
  config.straggler_jitter = 0.05;

  std::printf("== custom sync model demo: Local SGD vs BSP vs OSP ==\n");
  auto report = [&](runtime::SyncModel& sync) {
    runtime::Engine engine(spec, config, sync);
    const runtime::RunResult r = engine.run();
    std::printf("%-14s tput=%7.1f img/s  top-1=%6.2f%%  BST=%.3fs\n",
                r.sync_name.c_str(), r.throughput, 100.0 * r.best_metric,
                r.mean_bst_s);
  };
  LocalSgdSync local(local_steps);
  sync::BspSync bsp;
  core::OspSync osp;
  report(local);
  report(bsp);
  report(osp);
  return 0;
}
