// Image-classification comparison: run any paper workload under any sync
// model from the command line and compare against BSP.
//
//   ./build/examples/image_classification [workload] [sync] [workers] [epochs]
//     workload: resnet50 | vgg16 | inception | resnet101   (default resnet50)
//     sync:     osp | bsp | asp | r2sp | ssp               (default osp)
//
// Example: ./build/examples/image_classification vgg16 osp 8 20
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "core/osp_sync.hpp"
#include "models/zoo.hpp"
#include "runtime/engine.hpp"
#include "sync/async.hpp"
#include "sync/bsp.hpp"
#include "sync/r2sp.hpp"

namespace {

osp::runtime::WorkloadSpec pick_workload(const std::string& name) {
  using namespace osp::models;
  if (name == "vgg16") return vgg16_cifar10();
  if (name == "inception") return inceptionv3_cifar100();
  if (name == "resnet101") return resnet101_imagenet();
  return resnet50_cifar10();
}

std::unique_ptr<osp::runtime::SyncModel> pick_sync(const std::string& name) {
  using namespace osp;
  if (name == "bsp") return std::make_unique<sync::BspSync>();
  if (name == "asp") return std::make_unique<sync::AsyncSync>();
  if (name == "r2sp") return std::make_unique<sync::R2spSync>();
  if (name == "ssp") return std::make_unique<sync::AsyncSync>(sync::ssp(3));
  return std::make_unique<core::OspSync>();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace osp;
  const std::string workload_name = argc > 1 ? argv[1] : "resnet50";
  const std::string sync_name = argc > 2 ? argv[2] : "osp";
  const std::size_t workers =
      argc > 3 ? static_cast<std::size_t>(std::atoi(argv[3])) : 8;
  const std::size_t epochs =
      argc > 4 ? static_cast<std::size_t>(std::atoi(argv[4])) : 15;

  const runtime::WorkloadSpec spec = pick_workload(workload_name);
  runtime::EngineConfig config;
  config.num_workers = workers;
  config.max_epochs = epochs;
  config.straggler_jitter = 0.05;

  std::printf("== %s on %zu workers, %zu epochs ==\n", spec.name.c_str(),
              workers, epochs);

  auto run = [&](std::unique_ptr<runtime::SyncModel> sync) {
    runtime::Engine engine(spec, config, *sync);
    const runtime::RunResult r = engine.run();
    std::printf("%-8s  tput=%8.1f img/s  top-1=%6.2f%%  BST=%.3fs  "
                "BCT=%.3fs  time=%.1fs\n",
                r.sync_name.c_str(), r.throughput, 100.0 * r.best_metric,
                r.mean_bst_s, r.mean_bct_s, r.total_time_s);
    return r;
  };

  const runtime::RunResult chosen = run(pick_sync(sync_name));
  if (sync_name != "bsp") {
    const runtime::RunResult baseline = run(pick_sync("bsp"));
    std::printf("\n%s vs BSP: %.1f%% throughput, %+.2fpp top-1\n",
                chosen.sync_name.c_str(),
                100.0 * chosen.throughput / baseline.throughput,
                100.0 * (chosen.best_metric - baseline.best_metric));
  }
  return 0;
}
