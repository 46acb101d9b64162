// Micro-benchmarks (google-benchmark): the discrete-event core and the
// max-min fair-share network model — event throughput, rate recomputation
// under churn, and push/pull round-trip traffic at cluster scale.
//
// Besides the console table, the run writes
// bench_out/BENCH_micro_network.json (override with OSP_BENCH_JSON): one
// record per benchmark with ns/op, events/sec, and the rate solver's
// flow-visit counters measured twice — once with the from-scratch
// reference solver ("before") and once with the incremental
// connected-component solver ("after") — so successive PRs can diff
// simulator performance mechanically.
//
// On topology and the visit ratio: a single shared PS couples every
// concurrent flow through the PS ingress/egress link into one connected
// component, so the incremental solver must legitimately re-solve
// everything (that coupling *is* the incast effect) and the ratio stays
// near 1. The reduction appears when traffic has component structure: in
// sharded/multi-PS deployments (racks with their own PS — the
// configuration the paper's §6 multi-PS experiments and our
// bench_ext_scaling §6.1b sweep model) each rack's push set and pull set
// is an independent component, and the incremental solver skips the rest
// of the cluster.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "core/gib.hpp"
#include "core/pgp.hpp"
#include "sim/cluster.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace {

using namespace osp;

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 10000; ++i) {
      sim.schedule(static_cast<double>(i % 97), [] {});
    }
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10000);
  state.counters["events_per_s"] = benchmark::Counter(
      10000.0, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_SimulatorEventThroughput);

void BM_NetworkFlowChurn(benchmark::State& state) {
  const auto flows = static_cast<std::size_t>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Network net(sim);
    const sim::LinkId l = net.add_link(1e9);
    for (std::size_t f = 0; f < flows; ++f) {
      net.start_flow({l}, 1e6 * static_cast<double>(f + 1), nullptr);
    }
    events = sim.run();
    benchmark::DoNotOptimize(net.bytes_delivered());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(flows));
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(events),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_NetworkFlowChurn)->Arg(8)->Arg(64)->Arg(256);

// ---- push/pull round-trip churn at cluster scale ------------------------

/// A rack-structured parameter-server workload driven straight against the
/// Network: `racks` independent PSes, `workers_per_rack` workers each doing
/// `rounds` push→pull round trips with deterministic per-worker stagger
/// (modeling compute jitter). Every worker and PS gets its own up/down
/// link, as in sim::Cluster's topology.
class RoundTripHarness {
 public:
  RoundTripHarness(std::size_t racks, std::size_t workers_per_rack,
                   std::size_t rounds, bool reference_solver)
      : net_(sim_) {
    net_.set_use_reference_solver(reference_solver);
    const double bw = sim::gbps_to_bytes_per_sec(10.0);
    constexpr double kLatency = 50e-6;
    constexpr double kAlpha = 0.03;
    std::vector<std::pair<sim::LinkId, sim::LinkId>> ps;  // up, down
    ps.reserve(racks);
    for (std::size_t r = 0; r < racks; ++r) {
      const sim::LinkId up = net_.add_link(bw, kLatency, 0.0, kAlpha);
      const sim::LinkId down = net_.add_link(bw, kLatency, 0.0, kAlpha);
      ps.emplace_back(up, down);
    }
    workers_.reserve(racks * workers_per_rack);
    for (std::size_t r = 0; r < racks; ++r) {
      for (std::size_t w = 0; w < workers_per_rack; ++w) {
        const sim::LinkId up = net_.add_link(bw, kLatency);
        const sim::LinkId down = net_.add_link(bw, kLatency);
        Worker& wk = workers_.emplace_back();
        wk.push_route = {up, ps[r].second};
        wk.pull_route = {ps[r].first, down};
        wk.rounds_left = rounds;
      }
    }
    // Shard the model across the rack's workers: each pushes its slice.
    bytes_per_transfer_ = 80e6 / static_cast<double>(workers_per_rack);
  }

  void run() {
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      sim_.schedule(static_cast<double>(w) * 13e-6,
                    [this, w] { start_push(w); });
    }
    sim_.run();
  }

  [[nodiscard]] const sim::Network::SolveStats& stats() const {
    return net_.solve_stats();
  }
  [[nodiscard]] std::uint64_t events() const {
    return sim_.events_processed();
  }
  [[nodiscard]] double makespan() const { return sim_.now(); }

 private:
  struct Worker {
    std::vector<sim::LinkId> push_route;
    std::vector<sim::LinkId> pull_route;
    std::size_t rounds_left = 0;
  };

  void start_push(std::size_t w) {
    net_.start_flow(workers_[w].push_route, bytes_per_transfer_,
                    [this, w] { start_pull(w); });
  }

  void start_pull(std::size_t w) {
    net_.start_flow(workers_[w].pull_route, bytes_per_transfer_,
                    [this, w] { round_done(w); });
  }

  void round_done(std::size_t w) {
    if (--workers_[w].rounds_left == 0) return;
    // Deterministic pseudo-jitter: compute time varies per worker/round.
    const std::uint64_t h =
        w * 2654435761ULL + workers_[w].rounds_left * 40503ULL;
    sim_.schedule(200e-6 + static_cast<double>(h % 97) * 7e-6,
                  [this, w] { start_push(w); });
  }

  sim::Simulator sim_;
  sim::Network net_;
  std::vector<Worker> workers_;
  double bytes_per_transfer_ = 0.0;
};

struct ChurnRun {
  std::uint64_t flow_visits = 0;
  std::uint64_t solves = 0;
  std::uint64_t full_solves = 0;
  std::uint64_t events = 0;
  double makespan = 0.0;
};

ChurnRun run_round_trips(std::size_t racks, std::size_t workers_per_rack,
                         std::size_t rounds, bool reference_solver) {
  // Heap-allocate: the harness self-references through event captures.
  auto h = std::make_unique<RoundTripHarness>(racks, workers_per_rack, rounds,
                                              reference_solver);
  h->run();
  return {h->stats().flow_visits, h->stats().solves, h->stats().full_solves,
          h->events(), h->makespan()};
}

/// Args: {racks, workers_per_rack}. The timed body runs the shipped
/// (incremental) solver; the before/after flow-visit counters come from
/// one untimed run of each solver on the identical workload.
void BM_RoundTripChurn(benchmark::State& state) {
  const auto racks = static_cast<std::size_t>(state.range(0));
  const auto wpr = static_cast<std::size_t>(state.range(1));
  constexpr std::size_t kRounds = 4;
  const ChurnRun after = run_round_trips(racks, wpr, kRounds, false);
  const ChurnRun before = run_round_trips(racks, wpr, kRounds, true);
  std::uint64_t events = 0;
  for (auto _ : state) {
    const ChurnRun r = run_round_trips(racks, wpr, kRounds, false);
    events = r.events;
    benchmark::DoNotOptimize(r.makespan);
  }
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(events),
      benchmark::Counter::kIsIterationInvariantRate);
  state.counters["workers"] = benchmark::Counter(
      static_cast<double>(racks * wpr));
  state.counters["solves"] =
      benchmark::Counter(static_cast<double>(after.solves));
  state.counters["full_solves"] =
      benchmark::Counter(static_cast<double>(after.full_solves));
  state.counters["visits_reference"] =
      benchmark::Counter(static_cast<double>(before.flow_visits));
  state.counters["visits_incremental"] =
      benchmark::Counter(static_cast<double>(after.flow_visits));
  state.counters["visit_ratio"] = benchmark::Counter(
      static_cast<double>(before.flow_visits) /
      static_cast<double>(after.flow_visits));
}
BENCHMARK(BM_RoundTripChurn)
    ->Args({1, 8})    // the paper's 8-worker testbed, one PS
    ->Args({1, 32})   // 32 workers on one PS: fully coupled, ratio ~1
    ->Args({4, 8})    // 32 workers sharded across 4 PSes
    ->Args({16, 8})   // 128 workers
    ->Args({32, 8});  // 256 workers

void BM_IncastRound(benchmark::State& state) {
  // One BSP-style round: 8 pushes into the PS + 8 responses.
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    sim::ClusterConfig cfg;
    cfg.num_workers = 8;
    sim::Cluster cluster(sim, cfg);
    int arrived = 0;
    for (std::size_t w = 0; w < 8; ++w) {
      cluster.network().start_flow(cluster.route_to_ps(w), 100e6,
                                   [&arrived] { ++arrived; });
    }
    sim.run();
    for (std::size_t w = 0; w < 8; ++w) {
      cluster.network().start_flow(cluster.route_from_ps(w), 100e6,
                                   [&arrived] { ++arrived; });
    }
    sim.run();
    events = sim.events_processed();
    benchmark::DoNotOptimize(arrived);
  }
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(events),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_IncastRound);

void BM_BroadcastBurst(benchmark::State& state) {
  // One broadcast at wide-osp's scale: 256 workers pull their slice from
  // each of 4 PS shards, every pull started in one event (as a sync round
  // releases them), then the network drains. The burst is one rate solve
  // and the drain none: every pull finishes at one instant, so each
  // completion finds the next pull with 0 bytes left (a zero-time cascade).
  constexpr std::size_t kWorkers = 256;
  constexpr std::size_t kShards = 4;
  std::uint64_t solves = 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    sim::ClusterConfig cfg;
    cfg.num_workers = kWorkers;
    cfg.num_ps = kShards;
    auto cluster = std::make_unique<sim::Cluster>(sim, cfg);
    state.ResumeTiming();
    sim.schedule(0.0, [&cluster] {
      for (std::size_t w = 0; w < kWorkers; ++w) {
        for (std::size_t ps = 0; ps < kShards; ++ps) {
          cluster->network().start_flow(cluster->route_from_ps(w, ps),
                                        4e6 / kShards, nullptr);
        }
      }
    });
    events = sim.run();
    solves = cluster->network().solve_stats().solves;
    benchmark::DoNotOptimize(cluster->network().bytes_delivered());
    state.PauseTiming();
    cluster.reset();
    state.ResumeTiming();
  }
  state.counters["solves"] =
      benchmark::Counter(static_cast<double>(solves));
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(events),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_BroadcastBurst);

/// wide-osp's traffic shape: every one of `workers` workers pushes a slice
/// to each of `shards` PS shards (all of a worker's pushes in one event,
/// workers staggered by deterministic pseudo-jitter); once every push has
/// landed the shards answer every worker in one event, and once every pull
/// has landed the next round begins. Each worker touches every shard, so
/// every solve's closure is every in-flight flow.
class ShardedIncastHarness {
 public:
  ShardedIncastHarness(std::size_t workers, std::size_t shards,
                       std::size_t rounds)
      : workers_(workers), shards_(shards), rounds_left_(rounds) {
    sim::ClusterConfig cfg;
    cfg.num_workers = workers;
    cfg.num_ps = shards;
    cluster_ = std::make_unique<sim::Cluster>(sim_, cfg);
  }

  void run() {
    start_pushes();
    sim_.run();
  }

  [[nodiscard]] const sim::Network::SolveStats& stats() const {
    return cluster_->network().solve_stats();
  }
  [[nodiscard]] std::uint64_t events() const {
    return sim_.events_processed();
  }

 private:
  static constexpr double kSliceBytes = 4e6 / 4;

  void start_pushes() {
    owed_ = workers_ * shards_;
    for (std::size_t w = 0; w < workers_; ++w) {
      const std::uint64_t h = w * 2654435761ULL + rounds_left_ * 40503ULL;
      sim_.schedule(static_cast<double>(h % 97) * 7e-6, [this, w] {
        for (std::size_t ps = 0; ps < shards_; ++ps) {
          cluster_->network().start_flow(cluster_->route_to_ps(w, ps),
                                         kSliceBytes, [this] {
                                           if (--owed_ == 0) start_pulls();
                                         });
        }
      });
    }
  }

  void start_pulls() {
    owed_ = workers_ * shards_;
    for (std::size_t w = 0; w < workers_; ++w) {
      for (std::size_t ps = 0; ps < shards_; ++ps) {
        cluster_->network().start_flow(
            cluster_->route_from_ps(w, ps), kSliceBytes, [this] {
              if (--owed_ == 0 && --rounds_left_ > 0) start_pushes();
            });
      }
    }
  }

  sim::Simulator sim_;
  std::unique_ptr<sim::Cluster> cluster_;
  std::size_t workers_;
  std::size_t shards_;
  std::size_t rounds_left_;
  std::size_t owed_ = 0;
};

void BM_ShardedIncast(benchmark::State& state) {
  // wide-osp's 256 workers x 4 PS shards, all-to-all. full_solves ==
  // solves shows the solver's full-closure path is taken on every event.
  constexpr std::size_t kWorkers = 256;
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kRounds = 2;
  sim::Network::SolveStats stats;
  std::uint64_t events = 0;
  for (auto _ : state) {
    auto h = std::make_unique<ShardedIncastHarness>(kWorkers, kShards,
                                                    kRounds);
    h->run();
    stats = h->stats();
    events = h->events();
    benchmark::DoNotOptimize(events);
  }
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(events),
      benchmark::Counter::kIsIterationInvariantRate);
  state.counters["solves"] =
      benchmark::Counter(static_cast<double>(stats.solves));
  state.counters["full_solves"] =
      benchmark::Counter(static_cast<double>(stats.full_solves));
}
BENCHMARK(BM_ShardedIncast);

void BM_PgpRanking(benchmark::State& state) {
  // PGP importance + sort over a model-sized flat vector.
  const auto params_count = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  std::vector<float> params(params_count), grads(params_count);
  for (float& v : params) v = static_cast<float>(rng.normal());
  for (float& v : grads) v = static_cast<float>(rng.normal());
  std::vector<nn::LayerBlockInfo> blocks;
  const std::size_t block_size = params_count / 16;
  for (std::size_t b = 0; b < 16; ++b) {
    std::string name = "b";
    name += std::to_string(b);
    blocks.push_back({std::move(name), b * block_size, block_size});
  }
  std::vector<double> bytes(16, static_cast<double>(block_size) * 4.0);
  for (auto _ : state) {
    auto imp = core::density_normalize(
        core::pgp_importance(params, grads, blocks), blocks);
    auto gib = core::Gib::from_ranking(core::rank_ascending(imp), bytes,
                                       static_cast<double>(params_count) * 2.0);
    benchmark::DoNotOptimize(gib.count_important());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(params_count));
}
BENCHMARK(BM_PgpRanking)->Arg(1 << 14)->Arg(1 << 18);

}  // namespace

int main(int argc, char** argv) {
  return osp::bench::run_benchmarks_with_json(
      argc, argv, "bench_out/BENCH_micro_network.json");
}
