// NLP fine-tuning scenario: the BERTbase-class workload (synthetic SQuAD
// span extraction) compared across OSP, ASP, and BSP — the paper's "near-
// ASP throughput in NLP tasks" experiment, with F1 trajectories.
//
//   ./build/examples/nlp_finetune [epochs]
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
  const std::size_t epochs =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 15;

  const runtime::WorkloadSpec spec = models::bertbase_squad();
  runtime::EngineConfig config;
  config.num_workers = 8;
  config.max_epochs = epochs;
  config.straggler_jitter = 0.05;
  config.eval_every_samples = spec.train->size() / 2;

  std::printf("== %s: fine-tuning on 8 workers, %zu epochs ==\n",
              spec.name.c_str(), epochs);
  std::printf("model: %.0f MB on the wire, batch %zu, QA span metric: F1\n\n",
              spec.real_param_bytes / 1e6, spec.batch_size);

  std::vector<std::unique_ptr<runtime::SyncModel>> syncs;
  syncs.push_back(std::make_unique<core::OspSync>());
  syncs.push_back(std::make_unique<sync::AsyncSync>());
  syncs.push_back(std::make_unique<sync::BspSync>());

  for (auto& sync : syncs) {
    runtime::Engine engine(spec, config, *sync);
    const runtime::RunResult r = engine.run();
    std::printf("%-5s  QAs/10s=%7.1f  best F1=%5.2f%%  BST=%.3fs  "
                "time=%.0fs\n",
                r.sync_name.c_str(), r.throughput * 10.0,
                100.0 * r.best_metric, r.mean_bst_s, r.total_time_s);
    std::printf("      F1 trajectory:");
    const std::size_t stride = std::max<std::size_t>(1, r.curve.size() / 8);
    for (std::size_t i = 0; i < r.curve.size(); i += stride) {
      std::printf(" %.0fs:%.0f%%", r.curve[i].time_s,
                  100.0 * r.curve[i].metric);
    }
    std::printf("\n");
  }
  return 0;
}
