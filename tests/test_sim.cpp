// Discrete-event simulator, flow-network, and cluster tests — including
// analytic checks of max-min fair sharing, incast collapse, loss inflation,
// and the compute-time model.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "sim/cluster.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace osp::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(3.0, [&] { order.push_back(3); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, TiesBreakInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(1.0, [&] { order.push_back(0); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(1.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Simulator, HandlersCanScheduleMore) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) sim.schedule(1.0, chain);
  };
  sim.schedule(1.0, chain);
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1.0, [&] { ++fired; });
  sim.schedule(5.0, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(2.0), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, RejectsPastScheduling) {
  Simulator sim;
  sim.schedule(1.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(0.5, [] {}), util::CheckError);
  EXPECT_THROW(sim.schedule(-1.0, [] {}), util::CheckError);
}

TEST(Simulator, RejectsNonFiniteTimes) {
  Simulator sim;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(sim.schedule_at(kInf, [] {}), util::CheckError);
  EXPECT_THROW(sim.schedule(kInf, [] {}), util::CheckError);
  EXPECT_THROW(sim.schedule_at(std::nan(""), [] {}), util::CheckError);
  EXPECT_THROW(sim.schedule(std::nan(""), [] {}), util::CheckError);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, ClearDropsPending) {
  Simulator sim;
  sim.schedule(1.0, [] {});
  sim.clear();
  EXPECT_TRUE(sim.empty());
}

// The deferred rate solve is part of the simulator's pending work: it is
// counted until it runs, and clear() drops its completion with the rest.
TEST(Simulator, PendingSolveCountsAndClears) {
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(1000.0);
  bool fired = false;
  const FlowId id = net.start_flow({l}, 1000.0, [&fired] { fired = true; });
  EXPECT_TRUE(net.solve_pending());
  EXPECT_FALSE(sim.empty());
  EXPECT_EQ(sim.pending(), 1u);  // the solve; its completion is not queued
  sim.clear();
  EXPECT_FALSE(net.solve_pending());
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(net.flow_rate(id), 1000.0);  // the rates were still set
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_FALSE(fired);
}

TEST(Simulator, OneNetworkPerSimulator) {
  Simulator sim;
  {
    Network net(sim);
    EXPECT_THROW(Network second(sim), util::CheckError);
  }
  // The destroyed network detached itself: a new one may attach.
  Network net(sim);
  const LinkId l = net.add_link(1000.0);
  double done_at = -1.0;
  net.start_flow({l}, 500.0, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_EQ(done_at, 0.5);
}

TEST(Network, SingleFlowTransferTime) {
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(1000.0, 0.5);  // 1000 B/s, 0.5 s latency
  double done_at = -1.0;
  net.start_flow({l}, 2000.0, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_NEAR(done_at, 2.0 + 0.5, 1e-9);  // 2 s transfer + 0.5 s latency
}

TEST(Network, ZeroByteFlowIsLatencyOnly) {
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(1000.0, 0.25);
  double done_at = -1.0;
  net.start_flow({l}, 0.0, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_NEAR(done_at, 0.25, 1e-12);
}

TEST(Network, TwoFlowsShareFairly) {
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(1000.0);
  std::vector<double> done(2, -1.0);
  net.start_flow({l}, 1000.0, [&] { done[0] = sim.now(); });
  net.start_flow({l}, 1000.0, [&] { done[1] = sim.now(); });
  sim.run();
  // Both at 500 B/s → both finish at 2 s.
  EXPECT_NEAR(done[0], 2.0, 1e-9);
  EXPECT_NEAR(done[1], 2.0, 1e-9);
}

TEST(Network, ShortFlowFinishesThenLongSpeedsUp) {
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(1000.0);
  double short_done = -1.0, long_done = -1.0;
  net.start_flow({l}, 500.0, [&] { short_done = sim.now(); });
  net.start_flow({l}, 1500.0, [&] { long_done = sim.now(); });
  sim.run();
  // Phase 1: both at 500 B/s. Short (500 B) done at t=1. Long has 1000 B
  // left, now alone at 1000 B/s → done at t=2.
  EXPECT_NEAR(short_done, 1.0, 1e-9);
  EXPECT_NEAR(long_done, 2.0, 1e-9);
}

TEST(Network, MaxMinFairnessAcrossTwoLinks) {
  // Flow A crosses links 1 and 2; flow B crosses link 1; flow C crosses
  // link 2. Link 1 cap 100, link 2 cap 200. Max-min: A and B bottleneck on
  // link 1 (50 each); C gets 200−50 = 150.
  Simulator sim;
  Network net(sim);
  const LinkId l1 = net.add_link(100.0);
  const LinkId l2 = net.add_link(200.0);
  FlowId a = net.start_flow({l1, l2}, 1e9, nullptr);
  FlowId b = net.start_flow({l1}, 1e9, nullptr);
  FlowId c = net.start_flow({l2}, 1e9, nullptr);
  // The solve is deferred to the end of the event; reading a rate runs it.
  EXPECT_NEAR(net.flow_rate(a), 50.0, 1e-9);
  EXPECT_NEAR(net.flow_rate(b), 50.0, 1e-9);
  EXPECT_NEAR(net.flow_rate(c), 150.0, 1e-9);
}

TEST(Network, RejectsNonFiniteFlows) {
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(1000.0);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(net.start_flow({l}, kInf, nullptr), util::CheckError);
  EXPECT_THROW(net.start_flow({l}, std::nan(""), nullptr), util::CheckError);
  EXPECT_THROW(net.start_flow({l}, 1.0, nullptr, kInf), util::CheckError);
  EXPECT_EQ(net.active_flows(), 0u);
  EXPECT_TRUE(sim.empty());
}

// A flow's completion keeps the place a solve on the spot would give it:
// an event scheduled later in the same callback, at exactly the flow's
// completion instant, fires after the flow has left the network.
TEST(Network, DeferredCompletionKeepsItsSequencePlace) {
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(1000.0);
  std::size_t seen = 99;
  sim.schedule_at(1.0, [&] {
    net.start_flow({l}, 1000.0, nullptr);  // completes at exactly t = 2
    sim.schedule_at(2.0, [&] { seen = net.active_flows(); });
  });
  sim.run();
  EXPECT_EQ(seen, 0u);
}

TEST(Network, LossInflatesTransferTime) {
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(1000.0, 0.0, 0.25);
  double done_at = -1.0;
  net.start_flow({l}, 1000.0, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_NEAR(done_at, 1.25, 1e-9);  // (1+lr) wire inflation
}

TEST(Network, IncastCollapseShrinksAggregate) {
  // With alpha=0.1 and 8 flows, usable capacity is b / (1 + 0.1·7) = b/1.7.
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(1000.0, 0.0, 0.0, 0.1);
  std::vector<double> done(8, -1.0);
  for (int f = 0; f < 8; ++f) {
    net.start_flow({l}, 125.0, [&done, f, &sim] { done[f] = sim.now(); });
  }
  sim.run();
  // 8×125 = 1000 B at 1000/1.7 B/s aggregate → 1.7 s.
  for (double d : done) EXPECT_NEAR(d, 1.7, 1e-9);
}

TEST(Network, SingleFlowUnaffectedByIncastAlpha) {
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(1000.0, 0.0, 0.0, 0.5);
  double done_at = -1.0;
  net.start_flow({l}, 1000.0, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_NEAR(done_at, 1.0, 1e-9);
}

TEST(Network, ExtraLatencyAddsToCompletion) {
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(1000.0, 0.1);
  double done_at = -1.0;
  net.start_flow({l}, 1000.0, [&] { done_at = sim.now(); }, 0.05);
  sim.run();
  EXPECT_NEAR(done_at, 1.15, 1e-9);
}

TEST(Network, BytesDeliveredCountsPayload) {
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(1000.0, 0.0, 0.5);  // heavy loss
  net.start_flow({l}, 300.0, nullptr);
  net.start_flow({l}, 700.0, nullptr);
  sim.run();
  EXPECT_NEAR(net.bytes_delivered(), 1000.0, 1e-9);  // payload, not wire
}

TEST(Network, IdealTransferTime) {
  Simulator sim;
  Network net(sim);
  const LinkId a = net.add_link(1000.0, 0.1, 0.0);
  const LinkId b = net.add_link(500.0, 0.2, 0.5);
  const double t = net.ideal_transfer_time({a, b}, 1000.0);
  // latency 0.3 + 1000·1.5 / min(1000,500) = 0.3 + 3.0.
  EXPECT_NEAR(t, 3.3, 1e-9);
}

TEST(Network, ManySequentialFlowsDeterministic) {
  auto run_once = [] {
    Simulator sim;
    Network net(sim);
    const LinkId l = net.add_link(100.0);
    double last = 0.0;
    for (int i = 0; i < 50; ++i) {
      net.start_flow({l}, 10.0 + i, [&last, &sim] { last = sim.now(); });
    }
    sim.run();
    return last;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(Cluster, TopologyRoutes) {
  Simulator sim;
  ClusterConfig cfg;
  cfg.num_workers = 4;
  Cluster cluster(sim, cfg);
  EXPECT_EQ(cluster.num_workers(), 4u);
  // 5 nodes (4 workers + PS), 2 links each.
  EXPECT_EQ(cluster.network().num_links(), 10u);
  const auto up = cluster.route_to_ps(2);
  const auto down = cluster.route_from_ps(2);
  ASSERT_EQ(up.size(), 2u);
  ASSERT_EQ(down.size(), 2u);
  EXPECT_NE(up[0], down[1]);  // worker uplink != worker downlink
}

TEST(Cluster, SharedPsIngressCreatesIncast) {
  Simulator sim;
  ClusterConfig cfg;
  cfg.num_workers = 4;
  cfg.link_gbps = 0.000008;  // 1000 B/s for easy math
  cfg.link_latency_s = 0.0;
  cfg.incast_alpha = 0.0;
  Cluster cluster(sim, cfg);
  std::vector<double> done(4, -1.0);
  for (std::size_t w = 0; w < 4; ++w) {
    cluster.network().start_flow(cluster.route_to_ps(w), 1000.0,
                                 [&done, w, &sim] { done[w] = sim.now(); });
  }
  sim.run();
  // All four flows share the PS downlink: 250 B/s each → 4 s.
  for (double d : done) EXPECT_NEAR(d, 4.0, 1e-6);
}

TEST(Cluster, ColocatedPsLoopback) {
  Simulator sim;
  ClusterConfig cfg;
  cfg.num_workers = 3;
  cfg.colocated_ps = true;
  Cluster cluster(sim, cfg);
  EXPECT_TRUE(cluster.hosts_ps(0));
  EXPECT_FALSE(cluster.hosts_ps(1));
  EXPECT_TRUE(cluster.route_to_ps(0).empty());
  EXPECT_FALSE(cluster.route_to_ps(1).empty());
  // Only 3 nodes worth of links.
  EXPECT_EQ(cluster.network().num_links(), 6u);
}

TEST(Cluster, SpeedFactors) {
  Simulator sim;
  ClusterConfig cfg;
  cfg.num_workers = 2;
  cfg.speed_factors = {1.0, 0.5};
  Cluster cluster(sim, cfg);
  EXPECT_DOUBLE_EQ(cluster.speed_factor(0), 1.0);
  EXPECT_DOUBLE_EQ(cluster.speed_factor(1), 0.5);
}

TEST(Cluster, RejectsBadSpeedFactorArity) {
  Simulator sim;
  ClusterConfig cfg;
  cfg.num_workers = 3;
  cfg.speed_factors = {1.0, 1.0};
  EXPECT_THROW(Cluster(sim, cfg), util::CheckError);
}

TEST(ComputeModel, BaseTimeScalesWithBatchAndFlops) {
  ComputeModel model;
  model.flops_per_sample = 1e9;
  model.node.device_flops = 1e12;
  model.node.efficiency = 0.5;
  EXPECT_NEAR(model.base_batch_time(64), 64.0 * 1e9 / 5e11, 1e-15);
  EXPECT_NEAR(model.base_batch_time(128), 2 * model.base_batch_time(64),
              1e-15);
}

TEST(ComputeModel, SpeedFactorDividesTime) {
  ComputeModel model;
  model.flops_per_sample = 1e9;
  model.node.device_flops = 1e12;
  model.node.efficiency = 0.5;
  util::Rng rng(1);
  const double fast = model.batch_time(64, 2.0, rng);
  const double slow = model.batch_time(64, 0.5, rng);
  EXPECT_NEAR(slow / fast, 4.0, 1e-12);
}

TEST(ComputeModel, JitterIsOneSided) {
  ComputeModel model;
  model.flops_per_sample = 1e9;
  model.node.device_flops = 1e12;
  model.node.efficiency = 0.5;
  model.straggler_jitter = 0.2;
  util::Rng rng(2);
  const double base = model.base_batch_time(64);
  double total = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const double t = model.batch_time(64, 1.0, rng);
    EXPECT_GE(t, base);
    total += t / base - 1.0;
  }
  EXPECT_NEAR(total / 2000.0, 0.2, 0.02);  // exponential mean = jitter
}

TEST(GbpsConversion, TenGbpsIs1250MBps) {
  EXPECT_DOUBLE_EQ(gbps_to_bytes_per_sec(10.0), 1.25e9);
}

// ---- fault injection: dynamic link state ----

TEST(NetworkFaults, LinkDownStallsFlowAndResumes) {
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(1000.0);
  double done_at = -1.0;
  net.start_flow({l}, 1000.0, [&] { done_at = sim.now(); });
  // Down for [0.5, 1.0): the flow moves 500 B, stalls 0.5 s, then finishes
  // the remaining 500 B → 1.5 s total.
  sim.schedule(0.5, [&] { net.set_link_up(l, false); });
  sim.schedule(1.0, [&] { net.set_link_up(l, true); });
  sim.run();
  EXPECT_NEAR(done_at, 1.5, 1e-9);
}

TEST(NetworkFaults, FlowStartedOnDownLinkWaitsForUpEdge) {
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(1000.0);
  net.set_link_up(l, false);
  double done_at = -1.0;
  net.start_flow({l}, 1000.0, [&] { done_at = sim.now(); });
  sim.schedule(2.0, [&] { net.set_link_up(l, true); });
  sim.run();
  EXPECT_FALSE(net.link_up(l) == false);
  EXPECT_NEAR(done_at, 3.0, 1e-9);  // 2 s stalled + 1 s transfer
}

TEST(NetworkFaults, DegradationScalesBandwidthAndRestores) {
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(1000.0);
  net.set_link_degradation(l, 0.5);
  EXPECT_NEAR(net.link_capacity(l), 500.0, 1e-9);
  double done_at = -1.0;
  net.start_flow({l}, 1000.0, [&] { done_at = sim.now(); });
  // Restore at t=1: 500 B moved at 500 B/s, the rest at 1000 B/s.
  sim.schedule(1.0, [&] { net.set_link_degradation(l, 1.0); });
  sim.run();
  EXPECT_NEAR(done_at, 1.5, 1e-9);
  EXPECT_NEAR(net.link_capacity(l), 1000.0, 1e-9);
}

TEST(NetworkFaults, DegradationExtraLossInflatesNewFlows) {
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(1000.0);
  net.set_link_degradation(l, 1.0, /*extra_loss_rate=*/0.5);
  double done_at = -1.0;
  net.start_flow({l}, 1000.0, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_NEAR(done_at, 1.5, 1e-9);  // 1000·(1+0.5) wire bytes
}

TEST(NetworkFaults, CancelFlowSpeedsUpSurvivor) {
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(1000.0);
  bool cancelled_fired = false;
  double done_at = -1.0;
  const FlowId doomed =
      net.start_flow({l}, 1000.0, [&] { cancelled_fired = true; });
  net.start_flow({l}, 1000.0, [&] { done_at = sim.now(); });
  // Both at 500 B/s; at t=1 cancel one → survivor has 500 B left at
  // 1000 B/s → done at 1.5 s.
  sim.schedule(1.0, [&] { EXPECT_TRUE(net.cancel_flow(doomed)); });
  sim.run();
  EXPECT_FALSE(cancelled_fired);
  EXPECT_NEAR(done_at, 1.5, 1e-9);
  EXPECT_EQ(net.flows_cancelled(), 1u);
  EXPECT_FALSE(net.cancel_flow(doomed));  // already gone
}

TEST(NetworkFaults, DropInjectionSuppressesDelivery) {
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(1000.0);
  net.add_injection_window(0.0, 1.0, l, 0.0, /*drop_prob=*/1.0);
  bool delivered = false;
  net.start_flow({l}, 100.0, [&] { delivered = true; });
  // A flow starting after the window passes normally.
  double late_done = -1.0;
  sim.schedule(2.0, [&] {
    net.start_flow({l}, 100.0, [&] { late_done = sim.now(); });
  });
  sim.run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net.messages_dropped(), 1u);
  EXPECT_NEAR(late_done, 2.1, 1e-9);
  EXPECT_NEAR(net.bytes_delivered(), 100.0, 1e-9);
}

TEST(NetworkFaults, DelayInjectionAddsLatency) {
  Simulator sim;
  Network net(sim);
  const LinkId l = net.add_link(1000.0);
  net.add_injection_window(0.0, 1.0, l, /*delay_s=*/0.25, 0.0);
  double done_at = -1.0;
  net.start_flow({l}, 1000.0, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_NEAR(done_at, 1.25, 1e-9);
  EXPECT_EQ(net.messages_delayed(), 1u);
}

TEST(NetworkFaults, DropSamplingIsSeedDeterministic) {
  auto run_once = [](std::uint64_t seed) {
    Simulator sim;
    Network net(sim);
    const LinkId l = net.add_link(1e6);
    net.set_injection_seed(seed);
    net.add_injection_window(0.0, 100.0, kAllLinks, 0.0, 0.5);
    std::vector<bool> delivered(64, false);
    for (std::size_t i = 0; i < 64; ++i) {
      net.start_flow({l}, 10.0, [&delivered, i] { delivered[i] = true; });
    }
    sim.run();
    return delivered;
  };
  EXPECT_EQ(run_once(7), run_once(7));       // replay is exact
  EXPECT_NE(run_once(7), run_once(8));       // and seed-sensitive
}

// Property test: under an arbitrary seeded sequence of link flaps,
// degradations, cancellations, and staggered flow starts, the allocation
// must keep every flow's rate non-negative, never oversubscribe a link,
// and — once the links heal — deliver exactly the payload of every flow
// that wasn't dropped or cancelled.
TEST(NetworkFaults, FlapFuzzPreservesInvariants) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Simulator sim;
    Network net(sim);
    const std::vector<LinkId> links = {net.add_link(1000.0),
                                       net.add_link(500.0),
                                       net.add_link(2000.0)};
    util::Rng rng(seed);
    double expected_payload = 0.0;
    double cancelled_payload = 0.0;
    std::size_t completions = 0;

    // Route table: flows cross one or two links.
    const std::vector<std::vector<LinkId>> routes = {
        {links[0]}, {links[1]}, {links[2]}, {links[0], links[2]},
        {links[1], links[2]}};

    struct StartedFlow {
      FlowId id;
      std::vector<LinkId> route;
      double payload;
    };
    auto started = std::make_shared<std::vector<StartedFlow>>();

    // Staggered flow starts.
    for (int i = 0; i < 40; ++i) {
      const double at = rng.uniform(0.0, 5.0);
      const auto& route = routes[rng.uniform_u64(routes.size())];
      const double payload = rng.uniform(100.0, 2000.0);
      expected_payload += payload;
      sim.schedule_at(at, [&net, &sim, &completions, route, payload,
                           started] {
        const FlowId id = net.start_flow(
            std::vector<LinkId>(route), payload, [&completions] {
              ++completions;
            });
        started->push_back({id, route, payload});
      });
    }
    // Random flap windows (always matched down/up inside [0, 6)).
    for (int i = 0; i < 12; ++i) {
      const LinkId l = links[rng.uniform_u64(links.size())];
      const double down_at = rng.uniform(0.0, 5.0);
      const double up_at = down_at + rng.uniform(0.05, 1.0);
      sim.schedule_at(down_at, [&net, l] { net.set_link_up(l, false); });
      sim.schedule_at(up_at, [&net, l] { net.set_link_up(l, true); });
    }
    // Random degradation windows.
    for (int i = 0; i < 8; ++i) {
      const LinkId l = links[rng.uniform_u64(links.size())];
      const double at = rng.uniform(0.0, 5.0);
      const double factor = rng.uniform(0.1, 1.0);
      sim.schedule_at(at, [&net, l, factor] {
        net.set_link_degradation(l, factor);
      });
      sim.schedule_at(at + rng.uniform(0.05, 1.0), [&net, l] {
        net.set_link_degradation(l, 1.0);
      });
    }
    // A couple of cancellations of whatever happens to be in flight.
    for (int i = 0; i < 3; ++i) {
      sim.schedule_at(rng.uniform(1.0, 5.0),
                      [&net, started, &cancelled_payload] {
        for (const auto& f : *started) {
          if (net.cancel_flow(f.id)) {  // true only for in-flight flows
            cancelled_payload += f.payload;
            break;
          }
        }
      });
    }
    // Invariant probes while the chaos runs.
    for (double t = 0.25; t < 6.0; t += 0.25) {
      sim.schedule_at(t, [&net, &links, started] {
        std::vector<double> load(links.size(), 0.0);
        for (const auto& f : *started) {
          const double r = net.flow_rate(f.id);
          EXPECT_GE(r, 0.0);
          for (const LinkId l : f.route) load[l] += r;
        }
        for (std::size_t li = 0; li < links.size(); ++li) {
          const double cap = net.link_capacity(links[li]);
          EXPECT_LE(load[li], cap + 1e-6)
              << "link " << li << " oversubscribed";
        }
      });
    }
    // Heal everything at t=6 so every surviving flow can finish.
    sim.schedule_at(6.0, [&net, &links] {
      for (const LinkId l : links) {
        net.set_link_up(l, true);
        net.set_link_degradation(l, 1.0);
      }
    });
    sim.run();

    EXPECT_EQ(net.active_flows(), 0u) << "seed " << seed;
    EXPECT_EQ(completions + net.flows_cancelled(), started->size())
        << "seed " << seed;
    EXPECT_NEAR(net.bytes_delivered(), expected_payload - cancelled_payload,
                1e-6 * expected_payload)
        << "seed " << seed;
  }
}

// ---- incremental rate solver vs. from-scratch reference -----------------

/// Drives one seeded random workload — random topology, staggered flow
/// starts over random routes, link flaps — against `net`/`sim` and returns
/// per-flow completion times (index = start order; -1 for flows that never
/// finished). Used to compare the incremental and reference solvers on
/// bit-identical inputs.
std::vector<double> run_random_workload(Simulator& sim, Network& net,
                                        std::uint64_t seed) {
  util::Rng rng(seed);
  const std::size_t num_links = 2 + rng.uniform_u64(8);  // 2..9 links
  std::vector<LinkId> links;
  for (std::size_t l = 0; l < num_links; ++l) {
    links.push_back(net.add_link(rng.uniform(200.0, 3000.0),
                                 rng.uniform(0.0, 0.01),
                                 rng.uniform(0.0, 0.1),
                                 rng.uniform(0.0, 0.05)));
  }
  const std::size_t num_flows = 20 + rng.uniform_u64(30);
  auto done = std::make_shared<std::vector<double>>(num_flows, -1.0);
  for (std::size_t i = 0; i < num_flows; ++i) {
    // Random route of 1..3 distinct-ish links (duplicates are legal).
    std::vector<LinkId> route;
    const std::size_t hops = 1 + rng.uniform_u64(3);
    for (std::size_t h = 0; h < hops; ++h) {
      route.push_back(links[rng.uniform_u64(links.size())]);
    }
    const double at = rng.uniform(0.0, 4.0);
    const double payload = rng.uniform(50.0, 3000.0);
    sim.schedule_at(at, [&net, &sim, done, i, route, payload] {
      net.start_flow(std::vector<LinkId>(route), payload,
                     [&sim, done, i] { (*done)[i] = sim.now(); });
    });
  }
  // Matched down/up flap windows so everything can eventually drain.
  for (int i = 0; i < 10; ++i) {
    const LinkId l = links[rng.uniform_u64(links.size())];
    const double down_at = rng.uniform(0.0, 4.0);
    sim.schedule_at(down_at, [&net, l] { net.set_link_up(l, false); });
    sim.schedule_at(down_at + rng.uniform(0.05, 0.8),
                    [&net, l] { net.set_link_up(l, true); });
  }
  sim.run();
  return *done;
}

// Property test: with check-against-reference enabled, every single rate
// recomputation re-runs the from-scratch solver internally and OSP_CHECKs
// that each flow's rate is bitwise identical — across random topologies,
// staggered arrivals, random routes, and link flaps.
TEST(NetworkIncremental, RandomChurnMatchesReferenceBitwise) {
  for (std::uint64_t seed = 11; seed <= 18; ++seed) {
    Simulator sim;
    Network net(sim);
    net.set_check_against_reference(true);
    const auto done = run_random_workload(sim, net, seed);
    EXPECT_EQ(net.active_flows(), 0u) << "seed " << seed;
    EXPECT_GT(net.solve_stats().solves, 0u) << "seed " << seed;
    for (double d : done) EXPECT_GT(d, 0.0) << "seed " << seed;
  }
}

// The same workload simulated end-to-end under each solver must produce
// bitwise-identical completion times, delivered bytes, and event counts.
TEST(NetworkIncremental, PairedRunsCompleteBitIdentical) {
  for (std::uint64_t seed = 21; seed <= 26; ++seed) {
    Simulator sim_inc;
    Network net_inc(sim_inc);
    const auto done_inc = run_random_workload(sim_inc, net_inc, seed);

    Simulator sim_ref;
    Network net_ref(sim_ref);
    net_ref.set_use_reference_solver(true);
    const auto done_ref = run_random_workload(sim_ref, net_ref, seed);

    ASSERT_EQ(done_inc.size(), done_ref.size()) << "seed " << seed;
    for (std::size_t i = 0; i < done_inc.size(); ++i) {
      EXPECT_EQ(done_inc[i], done_ref[i])  // bitwise, not approximate
          << "seed " << seed << " flow " << i;
    }
    EXPECT_EQ(net_inc.bytes_delivered(), net_ref.bytes_delivered())
        << "seed " << seed;
    EXPECT_EQ(sim_inc.events_processed(), sim_ref.events_processed())
        << "seed " << seed;
    // The reference solver can only do full solves; the incremental one
    // must never visit more flow entries than it.
    EXPECT_LE(net_inc.solve_stats().flow_visits,
              net_ref.solve_stats().flow_visits)
        << "seed " << seed;
  }
}

/// Same-callback bursts: each of `bursts` events starts many flows, starts
/// and cancels one (so the next start reuses its slot), and flaps link
/// edges. `settle_each_change` runs the solve after every change, as a
/// per-change solver would. Returns the completion times by start order
/// (-1 for never or cancelled), followed by the completion order.
std::vector<double> run_burst_workload(Simulator& sim, Network& net,
                                       std::uint64_t seed,
                                       bool settle_each_change) {
  util::Rng rng(seed);
  std::vector<LinkId> links;
  const std::size_t num_links = 2 + rng.uniform_u64(5);
  for (std::size_t l = 0; l < num_links; ++l) {
    links.push_back(net.add_link(rng.uniform(200.0, 3000.0),
                                 rng.uniform(0.0, 0.01), 0.0,
                                 rng.uniform(0.0, 0.05)));
  }
  auto done = std::make_shared<std::vector<double>>();
  auto order = std::make_shared<std::vector<double>>();
  auto settle = [&net, settle_each_change] {
    if (settle_each_change) net.settle();
  };
  auto start = [&, done, order](const std::vector<LinkId>& route,
                                double bytes) {
    const std::size_t i = done->size();
    done->push_back(-1.0);
    const FlowId id = net.start_flow(
        std::vector<LinkId>(route), bytes, [&sim, done, order, i] {
          (*done)[i] = sim.now();
          order->push_back(static_cast<double>(i));
        });
    settle();
    return id;
  };
  const std::size_t bursts = 6 + rng.uniform_u64(6);
  for (std::size_t b = 0; b < bursts; ++b) {
    std::vector<std::vector<LinkId>> routes(8 + rng.uniform_u64(24));
    std::vector<double> sizes;
    for (std::vector<LinkId>& route : routes) {
      const std::size_t hops = 1 + rng.uniform_u64(3);
      for (std::size_t h = 0; h < hops; ++h) {
        route.push_back(links[rng.uniform_u64(links.size())]);
      }
      sizes.push_back(rng.uniform(50.0, 3000.0));
    }
    const LinkId flap = links[rng.uniform_u64(links.size())];
    const bool heal_in_burst = rng.bernoulli(0.5);
    const double at = rng.uniform(0.0, 3.0);
    sim.schedule_at(at, [&, routes, sizes, flap, heal_in_burst, start,
                         settle] {
      const std::uint64_t solves = net.solve_stats().solves;
      const FlowId doomed = start(routes[0], sizes[0]);
      net.cancel_flow(doomed);
      settle();
      for (std::size_t f = 1; f < routes.size(); ++f) {
        start(routes[f], sizes[f]);
        if (f == routes.size() / 2) {
          net.set_link_up(flap, false);
          settle();
          if (heal_in_burst) {
            net.set_link_up(flap, true);
            settle();
          }
        }
      }
      if (!heal_in_burst) {
        sim.schedule(0.1, [&net, flap, settle] {
          net.set_link_up(flap, true);
          settle();
        });
      }
      if (!settle_each_change) {
        // The whole burst is one solve, run before the next event.
        sim.schedule(0.0, [&net, solves] {
          EXPECT_EQ(net.solve_stats().solves, solves + 1);
        });
      }
    });
  }
  sim.run();
  std::vector<double> out = *done;
  out.insert(out.end(), order->begin(), order->end());
  return out;
}

// One solve per burst, each checked bitwise against the from-scratch
// solver, and the completion times and order equal both a reference-solver
// run and a run that solves after every change.
TEST(NetworkIncremental, SameCallbackBurstsSolveOnceBitIdentical) {
  for (std::uint64_t seed = 31; seed <= 38; ++seed) {
    Simulator sim_inc;
    Network net_inc(sim_inc);
    net_inc.set_check_against_reference(true);
    const auto inc = run_burst_workload(sim_inc, net_inc, seed, false);

    Simulator sim_ref;
    Network net_ref(sim_ref);
    net_ref.set_use_reference_solver(true);
    const auto ref = run_burst_workload(sim_ref, net_ref, seed, false);

    Simulator sim_each;
    Network net_each(sim_each);
    const auto each = run_burst_workload(sim_each, net_each, seed, true);

    EXPECT_EQ(net_inc.active_flows(), 0u) << "seed " << seed;
    EXPECT_GT(net_inc.flows_cancelled(), 0u) << "seed " << seed;
    EXPECT_LT(net_inc.solve_stats().solves, net_each.solve_stats().solves)
        << "seed " << seed;
    ASSERT_EQ(inc.size(), ref.size()) << "seed " << seed;
    ASSERT_EQ(inc.size(), each.size()) << "seed " << seed;
    for (std::size_t i = 0; i < inc.size(); ++i) {
      EXPECT_EQ(inc[i], ref[i]) << "seed " << seed << " entry " << i;
      EXPECT_EQ(inc[i], each[i]) << "seed " << seed << " entry " << i;
    }
    EXPECT_EQ(net_inc.bytes_delivered(), net_each.bytes_delivered())
        << "seed " << seed;
  }
}

/// wide-osp's traffic shape straight on a Network: each of 16 workers
/// pushes one slice to every one of 4 PS shards in one event, and pulls one
/// back from each once every push of the round has landed (BSP-style
/// phases, so pushes and pulls never share the wire). Starts are staggered
/// at random, slice sizes are random per worker and phase, and each phase
/// cancels one worker's transfers mid-flight (a crash). With `outage`,
/// worker 0's uplink is down for part of the first push phase, stalling
/// its flows, and each half of the workers talks to its own two shards:
/// two components, so a solve in one half reaches none of the other
/// half's links. Returns the completion times in completion order.
std::vector<double> run_coupled_shards(Simulator& sim, Network& net,
                                       std::uint64_t seed, bool outage) {
  constexpr std::size_t kWorkers = 16;
  constexpr std::size_t kShards = 4;
  constexpr int kPhases = 6;  // three push + pull rounds
  util::Rng rng(seed);
  std::vector<LinkId> up, down, ps_in, ps_out;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    up.push_back(net.add_link(1000.0, 0.001));
    down.push_back(net.add_link(1000.0, 0.001));
  }
  for (std::size_t s = 0; s < kShards; ++s) {
    ps_in.push_back(net.add_link(3000.0, 0.001, 0.0, 0.02));
    ps_out.push_back(net.add_link(3000.0, 0.001, 0.0, 0.02));
  }
  std::vector<double> done;
  std::vector<std::vector<FlowId>> flows(kWorkers);
  int current = 0;
  std::size_t owed = 0;  // transfers of the phase not yet landed/cancelled
  std::function<void(int)> start_phase;
  auto settle_one = [&](int phase) {
    if (--owed == 0 && phase + 1 < kPhases) start_phase(phase + 1);
  };
  // Shards [first, first + reach) of worker w.
  const std::size_t reach = outage ? kShards / 2 : kShards;
  auto first = [&](std::size_t w) {
    return outage && w >= kWorkers / 2 ? kShards / 2 : 0;
  };
  start_phase = [&](int phase) {
    current = phase;
    owed = kWorkers * reach;
    const bool push = phase % 2 == 0;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      flows[w].clear();
      const double bytes = rng.uniform(200.0, 2000.0);
      sim.schedule(rng.uniform(0.0, 0.3), [&, w, bytes, push, phase] {
        for (std::size_t s = first(w); s < first(w) + reach; ++s) {
          std::vector<LinkId> route{up[w], ps_in[s]};
          if (!push) route = {ps_out[s], down[w]};
          flows[w].push_back(
              net.start_flow(std::move(route), bytes, [&, phase] {
                done.push_back(sim.now());
                settle_one(phase);
              }));
        }
      });
    }
    const std::size_t victim = rng.uniform_u64(kWorkers);
    sim.schedule(rng.uniform(0.1, 0.5), [&, victim, phase] {
      if (phase != current) return;
      const std::vector<FlowId> ids = flows[victim];
      for (const FlowId id : ids) {
        if (net.cancel_flow(id)) settle_one(phase);
      }
    });
  };
  start_phase(0);
  if (outage) {
    sim.schedule_at(0.2, [&net, &up] { net.set_link_up(up[0], false); });
    sim.schedule_at(1.5, [&net, &up] { net.set_link_up(up[0], true); });
  }
  sim.run();
  EXPECT_EQ(current, kPhases - 1);
  EXPECT_EQ(owed, 0u);
  return done;
}

// Every worker talks to every shard, so each solve's closure is every
// in-flight flow: every solve takes the full-closure path (by_id_ walk,
// fused completion pick), checked bitwise against the general path.
TEST(NetworkIncremental, CoupledShardsTakeTheFullPath) {
  for (std::uint64_t seed = 41; seed <= 44; ++seed) {
    Simulator sim;
    Network net(sim);
    net.set_check_against_reference(true);
    const auto done = run_coupled_shards(sim, net, seed, false);
    EXPECT_GT(net.flows_cancelled(), 0u) << "seed " << seed;
    EXPECT_EQ(done.size() + net.flows_cancelled(), 6u * 16u * 4u)
        << "seed " << seed;
    EXPECT_GT(net.solve_stats().solves, 0u) << "seed " << seed;
    EXPECT_EQ(net.solve_stats().full_solves, net.solve_stats().solves)
        << "seed " << seed;
  }
}

// A down uplink stalls one worker's flows, and the workers form two
// components. A solve in one of them does not reach every loaded link, so
// the BFS runs to the end and the partial path (id bits, active-list scan)
// water-fills; the run still matches the reference solver bit for bit.
TEST(NetworkIncremental, StalledFlowsTakeThePartialPath) {
  for (std::uint64_t seed = 41; seed <= 44; ++seed) {
    Simulator sim_inc;
    Network net_inc(sim_inc);
    net_inc.set_check_against_reference(true);
    const auto inc = run_coupled_shards(sim_inc, net_inc, seed, true);

    Simulator sim_ref;
    Network net_ref(sim_ref);
    net_ref.set_use_reference_solver(true);
    const auto ref = run_coupled_shards(sim_ref, net_ref, seed, true);

    EXPECT_LT(net_inc.solve_stats().full_solves, net_inc.solve_stats().solves)
        << "seed " << seed;
    EXPECT_EQ(inc, ref) << "seed " << seed;  // bitwise
    EXPECT_EQ(sim_inc.events_processed(), sim_ref.events_processed())
        << "seed " << seed;
  }
}

// Two flows finish at the same instant; the one fixed in the later
// water-filling round has the lower id and must complete first.
TEST(NetworkIncremental, FullSolveTieCompletesInIdOrder) {
  Simulator sim;
  Network net(sim);
  net.set_check_against_reference(true);
  const LinkId narrow = net.add_link(100.0);
  const LinkId wide = net.add_link(300.0);
  std::vector<int> order;
  std::vector<double> at;
  auto record = [&](int i) {
    return [&, i] {
      order.push_back(i);
      at.push_back(sim.now());
    };
  };
  sim.schedule(0.0, [&] {
    // Round 1 fixes flows 2 and 3 at 50 B/s on the narrow link; round 2
    // gives flow 1 the wide link's remaining 200 B/s. Flows 1 and 3 both
    // finish at t = 2.
    net.start_flow({wide}, 400.0, record(1));
    net.start_flow({narrow, wide}, 200.0, record(2));
    net.start_flow({narrow, wide}, 100.0, record(3));
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(at, (std::vector<double>{2.0, 2.0, 3.0}));
  EXPECT_EQ(net.solve_stats().full_solves, net.solve_stats().solves);
}

// Disjoint components keep the incremental solver local: with flows spread
// over independent links, it must visit at least 5x fewer flow entries
// than the from-scratch reference (the PR's headline scaling win).
TEST(NetworkIncremental, ShardedComponentsReduceVisits) {
  auto run_sharded = [](bool reference) {
    Simulator sim;
    Network net(sim);
    constexpr std::size_t kShards = 8;
    constexpr std::size_t kFlowsPerShard = 6;
    std::vector<LinkId> links;
    for (std::size_t s = 0; s < kShards; ++s) {
      links.push_back(net.add_link(1000.0));
    }
    net.set_use_reference_solver(reference);
    for (std::size_t s = 0; s < kShards; ++s) {
      for (std::size_t f = 0; f < kFlowsPerShard; ++f) {
        // Stagger starts so churn interleaves across shards.
        sim.schedule_at(static_cast<double>(f * kShards + s) * 0.01,
                        [&net, &links, s, f] {
                          net.start_flow({links[s]},
                                         500.0 + static_cast<double>(f) * 40.0,
                                         nullptr);
                        });
      }
    }
    sim.run();
    return net.solve_stats().flow_visits;
  };
  const std::uint64_t inc = run_sharded(false);
  const std::uint64_t ref = run_sharded(true);
  EXPECT_GE(static_cast<double>(ref), 5.0 * static_cast<double>(inc))
      << "ref=" << ref << " inc=" << inc;
}

// ---- zero-time completion cascades and the BFS handover ------------------

/// Workers pull equal slices from two shards in one event. Each shard's
/// egress link is the pulls' bottleneck, so a shard's pulls share one
/// rate and finish at one instant: when the first completes the rest have
/// exactly 0 wire bytes left, a zero-time cascade. Links have no latency,
/// so each completion callback runs before the next completion, in the
/// middle of the cascade; `hook` acts there.
struct Cascade {
  Simulator sim;
  Network net{sim};
  std::vector<LinkId> shard_out;
  std::vector<LinkId> worker_in;
  std::vector<FlowId> order;  ///< completed flows, in completion order
  std::vector<double> at;     ///< their completion times
  std::function<void(FlowId)> hook;
  /// The reference run: the from-scratch solver, and a rate read in every
  /// callback, which solves after every completion.
  const bool per_change;

  explicit Cascade(bool reference) : per_change(reference) {
    net.set_use_reference_solver(reference);
    net.set_check_against_reference(!reference);
    for (int s = 0; s < 2; ++s) shard_out.push_back(net.add_link(1000.0));
    for (int w = 0; w < 4; ++w) worker_in.push_back(net.add_link(1000.0));
  }

  FlowId start(std::vector<LinkId> route, double bytes) {
    const FlowId id = net.next_flow_id();
    net.start_flow(std::move(route), bytes, [this, id] {
      order.push_back(id);
      at.push_back(sim.now());
      if (per_change) {
        EXPECT_EQ(net.flow_rate(id), 0.0);
      }
      if (hook) hook(id);
    });
    return id;
  }

  /// Every worker pulls `bytes` from each shard, in one event at t = 0:
  /// flow ids 1, 2 are worker 0's, 3, 4 worker 1's, and so on.
  void pull_all(double bytes) {
    sim.schedule(0.0, [this, bytes] {
      for (const LinkId w : worker_in) {
        for (const LinkId s : shard_out) start({s, w}, bytes);
      }
    });
  }
};

// Eight tied pulls (250 B/s each, 500 bytes) finish at t = 2 in id order,
// with one solve for the whole cascade. Rates are solved only when time can
// pass, and the run matches one that solves after every change bit for bit.
TEST(NetworkCascade, TiedCompletionsMatchPerChangeSolves) {
  auto run = [](bool reference) {
    auto c = std::make_unique<Cascade>(reference);
    c->pull_all(500.0);
    // A long pull makes shard 0's pulls 200 B/s: they tie at t = 2.5, and
    // the long one finishes alone at t = 4.
    c->sim.schedule(0.0, [&c = *c] {
      c.start({c.shard_out[0], c.worker_in[0]}, 2000.0);
    });
    c->sim.run();
    return c;
  };
  const auto fast = run(false);
  const auto ref = run(true);
  EXPECT_EQ(fast->order, ref->order);
  EXPECT_EQ(fast->at, ref->at);  // bitwise
  EXPECT_EQ(fast->order, (std::vector<FlowId>{2, 4, 6, 8, 1, 3, 5, 7, 9}));
  EXPECT_EQ(fast->at, (std::vector<double>{2.0, 2.0, 2.0, 2.0, 2.5, 2.5, 2.5,
                                           2.5, 4.0}));
  EXPECT_EQ(fast->sim.events_processed(), ref->sim.events_processed());
  // One solve per start event and one after each cascade; the last flow
  // leaves none. Solving after every change takes one per completion.
  EXPECT_EQ(fast->net.solve_stats().solves, 4u);
  EXPECT_EQ(ref->net.solve_stats().solves, 10u);
}

// A rate read in the middle of a cascade solves at once, and the cascade's
// next completion stays the only one queued.
TEST(NetworkCascade, RateReadSolvesAndKeepsOneCompletion) {
  Cascade c(false);
  c.pull_all(500.0);
  bool read = false;
  c.hook = [&](FlowId id) {
    if (id != 1) return;
    const std::uint64_t solves = c.net.solve_stats().solves;
    EXPECT_EQ(c.net.flow_rate(2), 250.0);  // the rates before the cascade
    EXPECT_EQ(c.net.solve_stats().solves, solves + 1);
    EXPECT_FALSE(c.net.solve_pending());
    EXPECT_EQ(c.sim.pending(), 1u);  // flow 2's completion, nothing else
    read = true;
  };
  c.sim.run();
  EXPECT_TRUE(read);
  EXPECT_EQ(c.order, (std::vector<FlowId>{1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(c.at, std::vector<double>(8, 2.0));
  EXPECT_EQ(c.net.active_flows(), 0u);
}

// A link that goes down in the middle of a cascade stalls the zero-byte
// flows crossing it: they are not picked, and complete on the up edge.
TEST(NetworkCascade, LinkDownMidCascadeStallsItsZeroByteFlows) {
  auto run = [](bool reference) {
    auto c = std::make_unique<Cascade>(reference);
    c->pull_all(500.0);
    c->hook = [&c = *c](FlowId id) {
      if (id != 1) return;
      c.net.set_link_up(c.worker_in[3], false);  // flows 7 and 8
      c.sim.schedule_at(3.0, [&c] { c.net.set_link_up(c.worker_in[3], true); });
    };
    c->sim.run();
    return c;
  };
  const auto fast = run(false);
  const auto ref = run(true);
  EXPECT_EQ(fast->order, (std::vector<FlowId>{1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(fast->at, (std::vector<double>{2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 3.0,
                                           3.0}));
  EXPECT_EQ(fast->at, ref->at);
  // The start, and the solve that leaves flows 7 and 8 stalled.
  EXPECT_EQ(fast->net.solve_stats().solves, 2u);
}

// Cancelling the flow that would complete next: the cascade goes on with
// the one after it.
TEST(NetworkCascade, CancellingTheNextFlowSkipsIt) {
  auto run = [](bool reference) {
    auto c = std::make_unique<Cascade>(reference);
    c->pull_all(500.0);
    c->hook = [&c = *c](FlowId id) {
      if (id == 1) {
        EXPECT_TRUE(c.net.cancel_flow(2));
      }
    };
    c->sim.run();
    return c;
  };
  const auto fast = run(false);
  const auto ref = run(true);
  EXPECT_EQ(fast->order, (std::vector<FlowId>{1, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(fast->at, std::vector<double>(7, 2.0));
  EXPECT_EQ(fast->at, ref->at);
  EXPECT_EQ(fast->net.flows_cancelled(), 1u);
  EXPECT_EQ(fast->net.solve_stats().solves, 1u);
}

// A flow started in the middle of a cascade waits for it, then takes the
// freed links.
TEST(NetworkCascade, StartMidCascadeRunsAfterIt) {
  auto run = [](bool reference) {
    auto c = std::make_unique<Cascade>(reference);
    c->pull_all(500.0);
    c->hook = [&c = *c](FlowId id) {
      if (id == 1) c.start({c.shard_out[0], c.worker_in[0]}, 1000.0);
    };
    c->sim.run();
    return c;
  };
  const auto fast = run(false);
  const auto ref = run(true);
  EXPECT_EQ(fast->order, (std::vector<FlowId>{1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(fast->at, ref->at);  // bitwise
  EXPECT_EQ(fast->at.back(), 3.0);
  EXPECT_EQ(fast->net.solve_stats().solves, 2u);
}

// The closure BFS hands over to the full solve once it has reached every
// loaded link (one a moving flow crosses): every moving flow is then in the
// closure, even where the BFS has not visited it, and a stalled flow
// outside it only needs its zero rate. The full solve's setup pass visits
// every in-flight flow.
TEST(NetworkIncremental, BfsHandsOverOnceEveryLoadedLinkIsReached) {
  Simulator sim;
  Network net(sim);
  net.set_check_against_reference(true);
  const LinkId a = net.add_link(300.0);
  const LinkId b = net.add_link(100.0);
  const LinkId c = net.add_link(100.0);
  net.set_link_up(c, false);
  sim.schedule(0.0, [&] {
    for (int i = 0; i < 3; ++i) net.start_flow({a}, 3000.0, nullptr);
    net.start_flow({b}, 1000.0, nullptr);
    net.start_flow({c}, 100.0, nullptr);  // stalled
  });
  sim.run_until(0.5);
  EXPECT_EQ(net.solve_stats().solves, 1u);
  EXPECT_EQ(net.solve_stats().full_solves, 1u);

  // Link b's component reaches b but not a: the partial path.
  sim.schedule_at(1.0, [&] { net.start_flow({b}, 100.0, nullptr); });
  sim.run_until(1.5);
  EXPECT_EQ(net.solve_stats().solves, 2u);
  EXPECT_EQ(net.solve_stats().full_solves, 1u);

  // A flow over a and b reaches both loaded links as it is seeded: the
  // full solve, without expanding a link. Setup visits all 7 flows (the
  // stalled one on c included); round one fixes b's three at 100/3 B/s
  // (6 visits), round two a's other three (3 visits).
  const std::uint64_t visits = net.solve_stats().flow_visits;
  sim.schedule_at(2.0, [&] { net.start_flow({a, b}, 3000.0, nullptr); });
  sim.run_until(2.5);
  EXPECT_EQ(net.solve_stats().solves, 3u);
  EXPECT_EQ(net.solve_stats().full_solves, 2u);
  EXPECT_EQ(net.solve_stats().flow_visits - visits, 16u);

  sim.schedule_at(5.0, [&] { net.set_link_up(c, true); });
  sim.run();
  EXPECT_EQ(net.active_flows(), 0u);
}

}  // namespace
}  // namespace osp::sim
