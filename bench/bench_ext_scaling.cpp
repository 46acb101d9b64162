// Extension (§6.1): scaling — more workers, and multiple parameter servers.
//
// Part 1: with a single PS, growing the worker count shrinks Eq. 5's
// U_max = b·T_C/(N·(1+lr)) and saturates the PS links/update loop — the
// effect motivating the paper's multi-PS future work. The sweep now runs
// to 256 workers (the incremental rate solver + O(active) event path keep
// the simulation tractable); the "wall (s)" column is the host wall-clock
// cost of that row's three simulations, run concurrently through the
// multi-run harness.
// Part 2: the implemented multi-PS sharding (BytePS-style): blocks are
// byte-balanced across P servers, every PS aggregates and steps its own
// shard, and OSP's ICS capacity scales with P.
#include "bench_common.hpp"

#include "data/synthetic_image.hpp"
#include "sync/kv_bsp.hpp"
#include "util/check.hpp"

namespace {

/// Weak scaling: the stock synthetic train set (2048 examples) shards to
/// less than one batch per worker beyond 32 workers. Grow the dataset —
/// same task seed and distribution, more noise samples — so every worker
/// keeps at least one batch per epoch, matching the 32-worker shard shape.
osp::runtime::WorkloadSpec scaled_spec(const osp::runtime::WorkloadSpec& base,
                                       std::size_t workers) {
  const std::size_t need = workers * base.batch_size;
  if (base.train->size() >= need) return base;
  const auto* img =
      dynamic_cast<const osp::data::SyntheticImageDataset*>(base.train.get());
  OSP_CHECK(img != nullptr, "scaling sweep expects a synthetic image set");
  osp::data::ImageDatasetConfig cfg = img->config();
  cfg.num_examples = need;
  osp::runtime::WorkloadSpec out = base;
  out.train = std::make_shared<osp::data::SyntheticImageDataset>(cfg);
  return out;
}

}  // namespace

int main() {
  using namespace osp;
  const auto spec = models::resnet50_cifar10();
  const std::size_t epochs = bench::env_size("OSP_BENCH_EPOCHS", 12);

  const auto osp_umax = +[](const runtime::SyncModel& s) {
    return static_cast<const core::OspSync&>(s).u_max();
  };

  std::cout << "# Ext (§6.1a): worker scaling with a single PS\n";
  const std::vector<std::size_t> worker_counts = {4, 8, 16, 32, 64, 128, 256};
  std::vector<runtime::WorkloadSpec> specs;  // stable refs for the jobs
  specs.reserve(worker_counts.size());
  std::vector<bench::BenchJob> jobs;
  for (const std::size_t workers : worker_counts) {
    const auto cfg = bench::paper_config(workers, epochs);
    specs.push_back(scaled_spec(spec, workers));
    const auto& wspec = specs.back();
    jobs.push_back(bench::make_job(
        wspec, [] { return std::make_unique<sync::BspSync>(); }, cfg));
    jobs.push_back(bench::make_job(
        wspec, [] { return std::make_unique<sync::AsyncSync>(); }, cfg));
    jobs.push_back(bench::make_job(
        wspec, [] { return std::make_unique<core::OspSync>(); }, cfg,
        osp_umax));
  }
  const auto results = bench::run_jobs_parallel(jobs);

  util::Table workers_table({"workers", "BSP tput", "ASP tput", "OSP tput",
                             "OSP steady BST (s)", "U_max (MB)", "wall (s)"});
  for (std::size_t i = 0; i < worker_counts.size(); ++i) {
    const auto& rb = results[3 * i + 0];
    const auto& ra = results[3 * i + 1];
    const auto& ro = results[3 * i + 2];
    workers_table.add_row(
        {std::to_string(worker_counts[i]),
         util::Table::fmt(rb.result.throughput, 1),
         util::Table::fmt(ra.result.throughput, 1),
         util::Table::fmt(ro.result.steady_throughput, 1),
         util::Table::fmt(ro.result.steady_bst_s, 3),
         util::Table::fmt(ro.aux / 1e6, 1),
         util::Table::fmt(rb.wall_s + ra.wall_s + ro.wall_s, 2)});
  }
  bench::emit(workers_table, "ext_scaling_workers");

  std::cout << "# Ext (§6.1b): multi-PS sharding, 16 workers\n";
  const std::vector<std::size_t> ps_counts = {1, 2, 4};
  std::vector<bench::BenchJob> ps_jobs;
  for (const std::size_t ps : ps_counts) {
    auto cfg = bench::paper_config(16, epochs);
    cfg.cluster.num_ps = ps;
    ps_jobs.push_back(bench::make_job(
        spec,
        [] { return std::make_unique<sync::KvBspSync>(sync::sharded_bsp()); },
        cfg));
    ps_jobs.push_back(bench::make_job(
        spec, [] { return std::make_unique<core::OspSync>(); }, cfg,
        osp_umax));
  }
  const auto ps_results = bench::run_jobs_parallel(ps_jobs);

  util::Table ps_table({"PSes", "BSP(xP) tput", "BSP(xP) BST",
                        "OSP(xP) tput", "OSP(xP) steady BST",
                        "OSP U_max (MB)", "wall (s)"});
  for (std::size_t i = 0; i < ps_counts.size(); ++i) {
    const auto& rb = ps_results[2 * i + 0];
    const auto& ro = ps_results[2 * i + 1];
    ps_table.add_row({std::to_string(ps_counts[i]),
                      util::Table::fmt(rb.result.throughput, 1),
                      util::Table::fmt(rb.result.mean_bst_s, 3),
                      util::Table::fmt(ro.result.steady_throughput, 1),
                      util::Table::fmt(ro.result.steady_bst_s, 3),
                      util::Table::fmt(ro.aux / 1e6, 1),
                      util::Table::fmt(rb.wall_s + ro.wall_s, 2)});
  }
  bench::emit(ps_table, "ext_scaling_multips");
  return 0;
}
