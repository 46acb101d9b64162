// Figures 1–2 / §2.1.2 motivation: per-iteration time of BSP vs ASP.
//
// The paper reports T_ASP can be up to 6× smaller than T_BSP due to incast
// and stragglers. This bench measures mean iteration time (BCT + BST) for
// both models across worker counts and straggler intensities and prints the
// T_BSP/T_ASP ratio.
#include "bench_common.hpp"

int main() {
  using namespace osp;
  std::cout << "# Fig. 1-2 motivation: BSP vs ASP iteration time "
               "(ResNet50/CIFAR10 profile)\n";
  util::Table table({"workers", "jitter", "T_BSP (s)", "T_ASP (s)",
                     "T_BSP / T_ASP"});
  const auto spec = models::resnet50_cifar10();
  for (std::size_t workers : {2, 4, 8}) {
    for (double jitter : {0.02, 0.05, 0.15}) {
      auto cfg = bench::paper_config(workers,
                                     bench::env_size("OSP_BENCH_EPOCHS", 6));
      cfg.straggler_jitter = jitter;
      sync::BspSync bsp;
      sync::AsyncSync asp;
      const auto rb = bench::run_one(spec, bsp, cfg);
      const auto ra = bench::run_one(spec, asp, cfg);
      const double tb = rb.mean_bct_s + rb.mean_bst_s;
      const double ta = ra.mean_bct_s + ra.mean_bst_s;
      table.add_row({std::to_string(workers), util::Table::fmt(jitter, 2),
                     util::Table::fmt(tb, 3), util::Table::fmt(ta, 3),
                     util::Table::fmt(tb / ta, 2)});
    }
  }
  bench::emit(table, "fig12_bsp_asp_gap");
  return 0;
}
