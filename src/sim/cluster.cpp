#include "sim/cluster.hpp"

#include "util/check.hpp"

namespace osp::sim {

Cluster::Cluster(Simulator& sim, const ClusterConfig& config)
    : config_(config), net_(sim) {
  OSP_CHECK(config.num_workers > 0, "cluster needs workers");
  OSP_CHECK(config.link_gbps > 0.0, "link bandwidth must be positive");
  OSP_CHECK(config.speed_factors.empty() ||
                config.speed_factors.size() == config.num_workers,
            "speed_factors must be empty or one per worker");
  OSP_CHECK(config.num_ps >= 1, "need at least one PS");
  OSP_CHECK(!config.colocated_ps || config.num_ps == 1,
            "co-located PS supports a single PS only");
  const double bw = gbps_to_bytes_per_sec(config.link_gbps);
  // One uplink+downlink per worker node, plus one pair per standalone PS.
  const std::size_t nodes =
      config.num_workers + (config.colocated_ps ? 0 : config.num_ps);
  uplink_.reserve(nodes);
  downlink_.reserve(nodes);
  for (std::size_t n = 0; n < nodes; ++n) {
    uplink_.push_back(net_.add_link(bw, config.link_latency_s,
                                    config.loss_rate, config.incast_alpha));
    downlink_.push_back(net_.add_link(bw, config.link_latency_s,
                                      config.loss_rate,
                                      config.incast_alpha));
  }
  if (config.colocated_ps) {
    ps_nodes_ = {0};
  } else {
    for (std::size_t p = 0; p < config.num_ps; ++p) {
      ps_nodes_.push_back(config.num_workers + p);
    }
  }
}

std::vector<LinkId> Cluster::route_to_ps(std::size_t worker,
                                         std::size_t ps) const {
  OSP_CHECK(worker < config_.num_workers, "worker id out of range");
  OSP_CHECK(ps < ps_nodes_.size(), "ps id out of range");
  if (hosts_ps(worker)) return {};  // loopback
  return {uplink_[worker], downlink_[ps_nodes_[ps]]};
}

std::vector<LinkId> Cluster::route_from_ps(std::size_t worker,
                                           std::size_t ps) const {
  OSP_CHECK(worker < config_.num_workers, "worker id out of range");
  OSP_CHECK(ps < ps_nodes_.size(), "ps id out of range");
  if (hosts_ps(worker)) return {};  // loopback
  return {uplink_[ps_nodes_[ps]], downlink_[worker]};
}

LinkId Cluster::worker_uplink(std::size_t worker) const {
  OSP_CHECK(worker < config_.num_workers, "worker id out of range");
  return uplink_[worker];
}

LinkId Cluster::ps_downlink(std::size_t ps) const {
  OSP_CHECK(ps < ps_nodes_.size(), "ps id out of range");
  return downlink_[ps_nodes_[ps]];
}

std::string Cluster::link_node_name(LinkId id) const {
  for (std::size_t n = 0; n < uplink_.size(); ++n) {
    if (uplink_[n] != id && downlink_[n] != id) continue;
    if (n < config_.num_workers) return "worker" + std::to_string(n);
    return "ps" + std::to_string(n - config_.num_workers);
  }
  return "link" + std::to_string(id);
}

double Cluster::speed_factor(std::size_t worker) const {
  OSP_CHECK(worker < config_.num_workers, "worker id out of range");
  if (config_.speed_factors.empty()) return 1.0;
  return config_.speed_factors[worker];
}

double ComputeModel::base_batch_time(std::size_t batch_size) const {
  OSP_CHECK(flops_per_sample > 0.0, "compute model not configured");
  OSP_CHECK(node.device_flops > 0.0 && node.efficiency > 0.0,
            "invalid device spec");
  return flops_per_sample * static_cast<double>(batch_size) /
         (node.device_flops * node.efficiency);
}

double ComputeModel::batch_time(std::size_t batch_size, double speed_factor,
                                util::Rng& rng) const {
  OSP_CHECK(speed_factor > 0.0, "speed factor must be positive");
  double t = base_batch_time(batch_size) / speed_factor;
  if (straggler_jitter > 0.0) {
    t *= 1.0 + rng.exponential(1.0 / straggler_jitter);
  }
  return t;
}

}  // namespace osp::sim
