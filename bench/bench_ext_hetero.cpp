// Extension (§6.2): heterogeneous environments.
//
// Computation-capability heterogeneity: a fraction of workers run at
// reduced speed. Barrier schemes (BSP, OSP's RS) throttle to the slowest
// worker; ASP/SSP decouple but pay staleness; R²SP's fixed token order
// stalls behind the straggler. SSP's staleness bound and R²SP's serial
// variant are included for completeness.
#include "bench_common.hpp"

#include "sync/async.hpp"
#include "sync/casp.hpp"

int main() {
  using namespace osp;
  std::cout << "# Ext (§6.2): heterogeneity — one slow worker of 8\n";
  util::Table table({"slow factor", "sync", "best metric", "samples/s",
                     "mean BST (s)"});
  const auto spec = models::resnet50_cifar10();
  const std::size_t epochs = bench::env_size("OSP_BENCH_EPOCHS", 12);
  for (double slow : {1.0, 0.7, 0.4}) {
    auto cfg = bench::paper_config(8, epochs);
    cfg.cluster.speed_factors.assign(8, 1.0);
    cfg.cluster.speed_factors[7] = slow;

    std::vector<std::pair<std::string,
                          std::unique_ptr<runtime::SyncModel>>> syncs;
    syncs.emplace_back("BSP", std::make_unique<sync::BspSync>());
    syncs.emplace_back("ASP", std::make_unique<sync::AsyncSync>());
    syncs.emplace_back("SSP(s=3)",
                       std::make_unique<sync::AsyncSync>(sync::ssp(3)));
    syncs.emplace_back("DSSP(1..5)",
                       std::make_unique<sync::AsyncSync>(sync::dssp(1, 5)));
    syncs.emplace_back("CASP", std::make_unique<sync::CaspSync>());
    syncs.emplace_back("R2SP", std::make_unique<sync::R2spSync>());
    syncs.emplace_back("OSP", std::make_unique<core::OspSync>());
    for (auto& [label, sync] : syncs) {
      const auto r = bench::run_one(spec, *sync, cfg);
      table.add_row({util::Table::fmt(slow, 1), label,
                     util::Table::fmt(100.0 * r.best_metric, 2) + "%",
                     util::Table::fmt(r.throughput, 1),
                     util::Table::fmt(r.mean_bst_s, 3)});
    }
  }
  bench::emit(table, "ext_hetero");
  return 0;
}
