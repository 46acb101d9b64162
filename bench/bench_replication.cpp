// Failover cost of PS-shard replication (kv/shard_session.hpp): for each
// replication-aware sync model, a healthy run vs an identical run with
// the primary PS shard crashed mid-training and restarted later — so the
// schedule exercises both the promotion (crash) and the failback
// (restart), each with its version-predicate catch-up.
//
// The interesting columns are the *overhead* of surviving the crash
// (virtual-time slowdown vs healthy) and the replication accounting
// (promotions, catch-up bytes, mean replica lag). The healthy rows also
// double as a liveness check for the determinism contract: replication
// bookkeeping must cost zero promotions and zero catch-up bytes when no
// fault fires. The EXPERIMENTS.md failover-cost table is generated from
// this bench.
#include "bench_common.hpp"

#include "sync/kv_bsp.hpp"

int main() {
  using namespace osp;
  std::cout << "# PS failover cost: crash + restart of shard 0 "
               "(ResNet50/CIFAR10, 8 workers, 2 PS)\n";
  util::Table table({"model", "healthy (s)", "failover (s)", "overhead",
                     "promotions", "catch-up MB", "mean lag"});
  const auto spec = models::resnet50_cifar10();

  struct Row {
    std::string label;
    std::function<std::unique_ptr<runtime::SyncModel>()> make;
  };
  std::vector<Row> rows;
  rows.push_back({"ShardedBSP", [] {
                    return std::make_unique<sync::KvBspSync>(
                        sync::sharded_bsp());
                  }});
  rows.push_back({"KvBSP", [] {
                    return std::make_unique<sync::KvBspSync>(
                        sync::KvBspOptions{});
                  }});
  rows.push_back({"OSP", [] { return std::make_unique<core::OspSync>(); }});

  for (const Row& row : rows) {
    auto cfg = bench::paper_config();
    cfg.cluster.num_ps = 2;
    cfg.record_telemetry = true;

    auto healthy_sync = row.make();
    const auto healthy = bench::run_one(spec, *healthy_sync, cfg);

    // Crash the primary of shard 0 a third of the way through the healthy
    // run, bring it back after another fifth: the run crosses promotion,
    // degraded operation, and failback.
    auto crashed_cfg = cfg;
    crashed_cfg.faults.crash_ps(0.3 * healthy.total_time_s, /*ps=*/0,
                                /*restart_after=*/0.2 * healthy.total_time_s);
    auto crashed_sync = row.make();
    const auto crashed = bench::run_one(spec, *crashed_sync, crashed_cfg);

    double lag_sum = 0.0;
    for (const auto& rec : crashed.rounds) {
      lag_sum += static_cast<double>(rec.replica_lag);
    }
    const double mean_lag =
        crashed.rounds.empty()
            ? 0.0
            : lag_sum / static_cast<double>(crashed.rounds.size());
    const double overhead =
        100.0 * (crashed.total_time_s / healthy.total_time_s - 1.0);
    table.add_row(
        {row.label, util::Table::fmt(healthy.total_time_s, 2),
         util::Table::fmt(crashed.total_time_s, 2),
         util::Table::fmt(overhead, 1) + "%",
         std::to_string(crashed.faults.ps_promotions),
         util::Table::fmt(crashed.faults.replica_catchup_bytes / 1.0e6, 2),
         util::Table::fmt(mean_lag, 1)});
  }
  bench::emit(table, "replication");
  return 0;
}
