// Cluster topology and compute-time model.
//
// Reproduces the paper's testbed shape (§5.1.1): N single-GPU workers and
// one PS behind a non-blocking ToR switch, every node attached by a
// full-duplex access link (10 Gbit/s default). Each node contributes an
// uplink and a downlink; a worker→PS transfer crosses {worker uplink,
// PS downlink}, so simultaneous pushes from all workers share the PS
// downlink — the incast bottleneck.
//
// The compute model converts per-sample FLOPs into virtual seconds using a
// device peak rate and an achieved-efficiency factor, with optional
// one-sided straggler jitter and per-worker heterogeneity multipliers.
#pragma once

#include <string>
#include <vector>

#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace osp::sim {

struct NodeSpec {
  /// Peak device throughput in FLOP/s. Default: Tesla T4 fp32 (§5.1.1).
  double device_flops = 8.1e12;
  /// Fraction of peak actually achieved by real training kernels.
  /// 0.15 calibrates to ~100 ResNet50 images/s on a T4, matching public
  /// fp32 training benchmarks.
  double efficiency = 0.15;
};

struct ClusterConfig {
  std::size_t num_workers = 8;
  double link_gbps = 10.0;
  double link_latency_s = 20e-6;
  double loss_rate = 0.0;
  /// Incast goodput collapse coefficient (see LinkSpec::incast_alpha).
  double incast_alpha = 0.03;
  /// Per-transfer software overhead: serialization, framing, the prototype's
  /// process-pool handoff (§4.5). Added to every flow's latency.
  double transfer_overhead_s = 0.008;
  /// PS-side memory bandwidth for touching gradients/parameters (bytes/s);
  /// used to price aggregation and optimizer application. 0 disables.
  double ps_apply_bytes_per_s = 2.0e9;
  NodeSpec node;
  /// Co-located PS: the PS shares worker 0's node and links (§4.4).
  /// Incompatible with num_ps > 1.
  bool colocated_ps = false;
  /// Number of parameter servers (§6.1 scaling). Each standalone PS gets
  /// its own node and access links; parameters are sharded across them.
  std::size_t num_ps = 1;
  /// Optional per-worker relative speeds (1.0 = nominal). Empty = all 1.0.
  std::vector<double> speed_factors;
};

class Cluster {
 public:
  Cluster(Simulator& sim, const ClusterConfig& config);

  [[nodiscard]] std::size_t num_workers() const { return config_.num_workers; }
  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  [[nodiscard]] Network& network() { return net_; }
  [[nodiscard]] const Network& network() const { return net_; }

  [[nodiscard]] std::size_t num_ps() const { return config_.num_ps; }

  /// Route of the push (worker → PS `ps`). Empty when the PS is co-located
  /// on the same node (loopback: no network traversal).
  [[nodiscard]] std::vector<LinkId> route_to_ps(std::size_t worker,
                                                std::size_t ps = 0) const;

  /// Route of the pull (PS `ps` → worker); empty for the co-located worker.
  [[nodiscard]] std::vector<LinkId> route_from_ps(std::size_t worker,
                                                  std::size_t ps = 0) const;

  /// Relative speed of a worker (heterogeneity).
  [[nodiscard]] double speed_factor(std::size_t worker) const;

  /// True when `worker` hosts the co-located PS.
  [[nodiscard]] bool hosts_ps(std::size_t worker) const {
    return config_.colocated_ps && worker == 0;
  }

  // Link handles for targeting fault schedules (see sim/faults.hpp).
  /// Uplink of worker `w`'s node.
  [[nodiscard]] LinkId worker_uplink(std::size_t worker) const;
  /// Downlink of PS `ps`'s node (the co-located PS shares worker 0's).
  [[nodiscard]] LinkId ps_downlink(std::size_t ps = 0) const;

  /// Name of the node owning access link `id` ("worker3", "ps0", …) —
  /// labels flow spans in the trace. "link<N>" for an unknown id.
  [[nodiscard]] std::string link_node_name(LinkId id) const;

 private:
  ClusterConfig config_;
  Network net_;
  std::vector<LinkId> uplink_;    // per node; PS nodes follow worker nodes
  std::vector<LinkId> downlink_;
  std::vector<std::size_t> ps_nodes_;
};

/// Converts workload FLOPs into virtual compute seconds.
struct ComputeModel {
  double flops_per_sample = 0.0;
  NodeSpec node;
  /// Coefficient of the one-sided exponential jitter; 0 disables jitter.
  double straggler_jitter = 0.0;

  /// Base (jitter-free) FP+BP time for one batch on a nominal worker.
  [[nodiscard]] double base_batch_time(std::size_t batch_size) const;

  /// Jittered batch time for a worker with the given speed factor.
  [[nodiscard]] double batch_time(std::size_t batch_size, double speed_factor,
                                  util::Rng& rng) const;
};

}  // namespace osp::sim
