// Heterogeneous-cluster scenario (§6.2): one slow GPU in an 8-node cluster.
//
// Shows how each synchronization family degrades: barrier schemes (BSP,
// OSP's RS) throttle to the straggler, async schemes keep their pace but
// train on staler parameters, and SSP interpolates via its staleness bound.
//
//   ./build/examples/heterogeneous_cluster [slow_factor] [epochs]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/osp_sync.hpp"
#include "models/zoo.hpp"
#include "runtime/engine.hpp"
#include "sync/async.hpp"
#include "sync/bsp.hpp"

int main(int argc, char** argv) {
  using namespace osp;
  const double slow = argc > 1 ? std::atof(argv[1]) : 0.5;
  const std::size_t epochs =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 12;

  const runtime::WorkloadSpec spec = models::resnet50_cifar10();
  runtime::EngineConfig config;
  config.num_workers = 8;
  config.max_epochs = epochs;
  config.straggler_jitter = 0.05;
  config.cluster.speed_factors.assign(8, 1.0);
  config.cluster.speed_factors[7] = slow;

  std::printf("== heterogeneity: worker 7 at %.0f%% speed, %s ==\n",
              100.0 * slow, spec.name.c_str());

  std::vector<std::unique_ptr<runtime::SyncModel>> syncs;
  syncs.push_back(std::make_unique<sync::BspSync>());
  syncs.push_back(std::make_unique<sync::AsyncSync>());
  syncs.push_back(std::make_unique<sync::AsyncSync>(sync::ssp(3)));
  syncs.push_back(std::make_unique<core::OspSync>());

  double bsp_throughput = 0.0;
  for (auto& sync : syncs) {
    runtime::Engine engine(spec, config, *sync);
    const runtime::RunResult r = engine.run();
    if (r.sync_name == "BSP") bsp_throughput = r.throughput;
    std::printf("%-9s tput=%7.1f img/s (%5.1f%% of BSP)  top-1=%6.2f%%  "
                "BST=%.3fs\n",
                r.sync_name.c_str(), r.throughput,
                bsp_throughput > 0.0 ? 100.0 * r.throughput / bsp_throughput
                                     : 100.0,
                100.0 * r.best_metric, r.mean_bst_s);
  }
  std::printf("\nhint: batch-size tuning (§6.2) can rebalance compute time "
              "across heterogeneous nodes; try speed_factors with matching "
              "per-worker batch sizes as an extension.\n");
  return 0;
}
