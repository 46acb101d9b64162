// Extension (§2.2.2 / §7 contrast): OSP vs the communication-reduction
// alternatives it is positioned against.
//
// Top-K / Random-K sparsified BSP shrink the wire bytes but *discard*
// gradients — the accuracy-for-throughput trade the paper criticizes;
// error-feedback (DGC-style residual memory) repairs the accuracy at the
// cost of extra state; int8 quantization bounds the reduction at 4×;
// Sync-Switch trades phases instead of bytes. OSP delays gradients instead
// of dropping them, so its accuracy tracks BSP at compression-class BST.
#include "bench_common.hpp"

#include "sync/kv_bsp.hpp"
#include "sync/sync_switch.hpp"

int main() {
  using namespace osp;
  std::cout << "# Ext: OSP vs compression & hybrid schemes "
               "(ResNet50/CIFAR10)\n";
  util::Table table({"scheme", "best metric", "samples/s", "steady BST (s)"});
  const auto spec = models::resnet50_cifar10();
  const auto cfg = bench::paper_config();

  std::vector<std::pair<std::string,
                        std::unique_ptr<runtime::SyncModel>>> schemes;
  schemes.emplace_back("BSP", std::make_unique<sync::BspSync>());
  auto kv_bsp = [](const sync::KvBspOptions& opt) {
    return std::make_unique<sync::KvBspSync>(opt);
  };
  using kv::CompressionMode;
  schemes.emplace_back(
      "TopK 10%", kv_bsp(sync::compressed_bsp(CompressionMode::TopK, 0.10)));
  schemes.emplace_back(
      "TopK 5%", kv_bsp(sync::compressed_bsp(CompressionMode::TopK, 0.05)));
  schemes.emplace_back(
      "TopK 5% +EF",
      kv_bsp(sync::compressed_bsp(CompressionMode::TopK, 0.05, 99, true)));
  schemes.emplace_back(
      "RandomK 10%",
      kv_bsp(sync::compressed_bsp(CompressionMode::RandomK, 0.10)));
  schemes.emplace_back("Q8-BSP", kv_bsp(sync::quantized_bsp()));
  schemes.emplace_back("SyncSwitch 30%",
                       std::make_unique<sync::SyncSwitchSync>(0.3));
  schemes.emplace_back("OSP", std::make_unique<core::OspSync>());
  for (auto& [label, sync] : schemes) {
    const auto r = bench::run_one(spec, *sync, cfg);
    table.add_row({label, util::Table::fmt(100.0 * r.best_metric, 2) + "%",
                   util::Table::fmt(r.throughput, 1),
                   util::Table::fmt(r.steady_bst_s, 3)});
  }
  bench::emit(table, "ext_compression");
  return 0;
}
