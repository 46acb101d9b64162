// Flow-level network model with max-min fair bandwidth sharing.
//
// Links have capacity (bytes/s), propagation latency, and a loss rate that
// inflates the bytes on the wire by (1+lr) — the retransmission-overhead
// treatment matching the capacity term of the paper's Eq. 5. A flow follows
// a route of links; concurrent flows sharing a link split its capacity by
// progressive water-filling (max-min fairness). This is what produces the
// incast effect at the PS ingress link when all workers push simultaneously
// (BSP), and its absence when pushes are staggered (ASP/R²SP) or overlapped
// (OSP's ICS).
//
// Every topology change (flow start/finish, link flap, degradation edge,
// flow cancellation) advances all in-flight flows to the current instant,
// stales the scheduled completion (epoch counter) and seeds a deferred
// solve, which runs once per event (settle) or on a rate read. Its rates
// equal a per-change solve's: water-filling depends only on the final flow
// set, and every component that changed holds a seed. The completion keeps
// its per-change (time, seq) place (see sim/simulator.hpp).
//
// Zero-time cascades: a moving flow with exactly 0 wire bytes left
// completes at this instant whatever the rates are (dt = 0 at any
// positive rate, ties to the lowest id). While one exists, settle()
// schedules the lowest-id one in the place and with the callback a solve
// would give it, and keeps the seeds; the solve runs once, when no such
// flow is left or a rate is read. advance_to_now() records the flows it
// drains to 0, so finding one scans no flow list. Rates are therefore
// current whenever simulated time can pass.
//
// Scalability: the solver is *incremental*. A link→flows adjacency index
// lets each solve re-run water-filling only over the connected components
// reachable from the seeds — disjoint components share no links, so their
// allocations are independent and untouched rates stay valid bit-for-bit.
// Flows live in a slot-indexed table (stable indices, free-list reuse), on
// an id-ordered list that orders water-filling without a sort (a new id is
// the largest), and on an active-flow list so advancing in-flight bytes and
// rescheduling completions touch only flows whose rate is nonzero. Each
// link's count of non-stalled crossing flows is kept current at flow
// start, removal and stall edges, so no solve recounts it. A from-scratch
// reference solver is kept behind set_use_reference_solver() /
// set_check_against_reference() and asserted bitwise-equal in tests.
//
// Full closure: when every worker talks to every PS shard (wide-osp), each
// solve's closure is every in-flight flow. The closure BFS hands over to a
// full solve once it has reached every loaded link (one a moving flow
// crosses, counted at flow start, removal and stall edges): every moving
// flow crosses such a link, so the closure is every moving flow whether
// or not the BFS has visited it. The full solve walks by_id_ itself
// instead of setting and reading id bits: the same flows in the same
// ascending-id order. Every solve zeroes only stalled flows and writes
// each other rate once, when it is fixed, so active_ changes only when a
// flow starts or stops moving. A full solve fixes every moving flow, so
// it picks the next completion, the least (remaining / rate, id), as it
// fixes them, and the scan of active_ runs only after a partial solve;
// the least of a strict order does not depend on the visiting order. The reference solve keeps the general path (id
// bits, active_ scan), so the check stays independent.
//
// Fault injection (see sim/faults.hpp): links carry dynamic state — an
// up/down bit and a degradation (bandwidth factor + extra loss). A flow
// routed through a down link stalls at rate 0 and resumes when the link
// comes back; every flap edge seeds a solve. Per-flow down-link counters
// are maintained on the flap edges themselves, so recomputes never rescan
// routes for link health. Message-level injection windows add
// latency to, or drop outright, flows that *start* inside the window; drop
// sampling draws from a dedicated seeded stream so runs stay deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <unordered_map>
#include <vector>

#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace osp::util::serde {
class Writer;
class Reader;
}  // namespace osp::util::serde

namespace osp::sim {

using LinkId = std::size_t;
using FlowId = std::uint64_t;

/// What start_flow returns for a message an injection window dropped: no
/// flow exists, so there is nothing to cancel or wait for.
inline constexpr FlowId kNoFlow = 0;

/// Sentinel for "every link" in message-injection windows.
inline constexpr std::size_t kAllLinks = static_cast<std::size_t>(-1);

struct LinkSpec {
  double bandwidth_bps = 1.25e9;  ///< bytes/s (default: 10 Gbit/s)
  double latency_s = 0.0;
  double loss_rate = 0.0;
  /// TCP-incast goodput collapse: with K simultaneous flows the link's
  /// usable capacity degrades to b / (1 + incast_alpha·(K−1)), modeling
  /// buffer overflow + retransmission timeouts when synchronized senders
  /// converge on one port (the paper's §2 incast problem). 0 disables.
  double incast_alpha = 0.0;
};

/// Convert a link rate in Gbit/s to bytes/s.
[[nodiscard]] constexpr double gbps_to_bytes_per_sec(double gbps) {
  return gbps * 1e9 / 8.0;
}

class Network {
 public:
  explicit Network(Simulator& sim);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Add a link; bandwidth in bytes/s.
  LinkId add_link(double bandwidth_bytes_per_s, double latency_s = 0.0,
                  double loss_rate = 0.0, double incast_alpha = 0.0);

  [[nodiscard]] std::size_t num_links() const { return links_.size(); }
  [[nodiscard]] const LinkSpec& link(LinkId id) const;

  /// Start a flow of `bytes` along `route`; `on_complete` fires (through the
  /// simulator) when the last byte arrives. Zero-byte flows complete after
  /// the route latency alone. `extra_latency_s` models per-transfer software
  /// overhead (serialization, framing, process-pool handoff). Returns the
  /// flow id, or kNoFlow when an injection window dropped the message.
  FlowId start_flow(std::vector<LinkId> route, double bytes,
                    std::function<void()> on_complete,
                    double extra_latency_s = 0.0);

  /// The id the next flow start_flow starts will get.
  [[nodiscard]] FlowId next_flow_id() const { return next_flow_id_; }

  /// Cancel an in-flight flow: it is removed without firing its completion
  /// callback (used when a crashed worker's transfers are torn down).
  /// Returns false when the id is unknown or already finished.
  bool cancel_flow(FlowId id);

  // ---- dynamic link state (fault injection) ----

  /// Take a link down or bring it back up. Flows routed through a down
  /// link stall (rate 0) and resume on the up edge; rates recompute on
  /// both edges.
  void set_link_up(LinkId id, bool up);
  [[nodiscard]] bool link_up(LinkId id) const;

  /// Transient degradation: effective bandwidth becomes
  /// `bandwidth * bandwidth_factor` and flows *starting* while degraded see
  /// `loss_rate + extra_loss_rate`. Factor 1 / extra loss 0 restores the
  /// nominal link.
  void set_link_degradation(LinkId id, double bandwidth_factor,
                            double extra_loss_rate = 0.0);

  /// Effective capacity in bytes/s right now (0 when down; excludes the
  /// incast-collapse term, which depends on the instantaneous flow count).
  [[nodiscard]] double link_capacity(LinkId id) const;

  /// Message-level injection: flows starting in [start_s, end_s) whose
  /// route crosses `link` (or any link when kAllLinks) gain `delay_s`
  /// latency and are dropped (no delivery, no callback) with probability
  /// `drop_prob`, sampled from the seeded injection stream.
  void add_injection_window(double start_s, double end_s, std::size_t link,
                            double delay_s, double drop_prob);
  void set_injection_seed(std::uint64_t seed) { inject_rng_.reseed(seed); }

  [[nodiscard]] std::size_t flows_cancelled() const {
    return flows_cancelled_;
  }
  [[nodiscard]] std::size_t messages_dropped() const {
    return messages_dropped_;
  }
  [[nodiscard]] std::size_t messages_delayed() const {
    return messages_delayed_;
  }

  /// Number of flows still in flight.
  [[nodiscard]] std::size_t active_flows() const { return num_flows_; }

  /// Current fair-share rate of a flow (bytes/s); 0 if unknown/finished.
  /// Runs a solve that a zero-time completion left pending.
  [[nodiscard]] double flow_rate(FlowId id);

  /// Total bytes delivered since construction (post-loss-inflation wire
  /// bytes are NOT counted; this is payload).
  [[nodiscard]] double bytes_delivered() const { return bytes_delivered_; }

  /// Payload bytes of flows currently on the wire (real flows only —
  /// zero-byte latency stubs and dropped messages never count). Sampled
  /// into the "in_flight_bytes" counter track when tracing.
  [[nodiscard]] double bytes_in_flight() const { return payload_in_flight_; }

  /// Observer callbacks for trace recording. `started` fires when a real
  /// (bytes > 0, not dropped) flow enters the wire, with its id, route,
  /// start time, and payload bytes; `ended` fires at the instant the flow
  /// leaves the wire — delivery time (including route latency) on
  /// completion, cancellation time on cancel. Either hook may be empty.
  /// Hooks observe only; they must not call back into the network.
  struct FlowTraceHooks {
    std::function<void(FlowId, const std::vector<LinkId>&, double, double)>
        started;
    std::function<void(FlowId, double end_s, bool cancelled)> ended;
  };
  void set_trace_hooks(FlowTraceHooks hooks) { hooks_ = std::move(hooks); }

  /// Ideal (uncontended) transfer time of `bytes` over a route: the route
  /// latency plus bytes*(1+lr) at the bottleneck bandwidth.
  [[nodiscard]] double ideal_transfer_time(const std::vector<LinkId>& route,
                                           double bytes) const;

  // ---- solver instrumentation & debugging ----

  /// Work counters for the rate solver (reset-free, monotonic).
  struct SolveStats {
    std::uint64_t solves = 0;       ///< rate recomputations executed
    std::uint64_t full_solves = 0;  ///< recomputations that spanned all flows
    /// Flow entries examined across all solves: one per flow in the setup
    /// pass plus one per (flow, water-filling round). A solve whose closure
    /// BFS handed over to the full path counts every in-flight flow in its
    /// setup pass, stalled ones included; the BFS's own visits are not
    /// counted. The incremental solver's headline win is reducing this
    /// count.
    std::uint64_t flow_visits = 0;
  };
  [[nodiscard]] const SolveStats& solve_stats() const { return stats_; }

  /// Debug: route every recomputation through the from-scratch reference
  /// water-filling over all flows × links (the pre-incremental algorithm).
  void set_use_reference_solver(bool on) { use_reference_solver_ = on; }

  /// Debug: after every incremental solve, re-run the reference solver and
  /// assert every flow's rate is bitwise identical, and that the link
  /// loads and zero-byte records equal a recount; where a zero-time
  /// completion stands in for a solve, assert a reference solve picks the
  /// same flow (slow; for tests).
  void set_check_against_reference(bool on) { check_reference_ = on; }

  /// settle() runs a pending solve and schedules the next completion (or
  /// schedules a zero-time completion and leaves the solve for later); the
  /// simulator calls it after every event.
  [[nodiscard]] bool solve_pending() const { return solve_pending_; }
  void settle();
  /// Run the solve a zero-time completion left for later, scheduling
  /// nothing: Simulator::clear() calls it after settle(), since the
  /// completion it drops is what kept simulated time from passing.
  void solve_deferred_rates();

  // ---- checkpointing ----

  /// Serialize dynamic state: per-link fault state, the injection RNG
  /// stream, flow-id counter, and accounting counters. Requires a
  /// quiescent network (no in-flight flows, no pending solve) — in-flight
  /// flows are drained by the engine before a snapshot, never serialized.
  void save_state(util::serde::Writer& w) const;

  /// Restore state saved by save_state onto a freshly built network with
  /// the same link topology.
  void load_state(util::serde::Reader& r);

 private:
  static constexpr std::uint32_t kNpos = 0xFFFFFFFFu;

  struct Flow {
    FlowId id = 0;
    std::vector<LinkId> route;
    double payload_bytes = 0.0;         ///< size as requested by the caller
    double wire_bytes_remaining = 0.0;  ///< includes (1+lr) inflation
    double rate = 0.0;                  ///< bytes/s, set by water-filling
    double latency = 0.0;               ///< route latency to add at the end
    std::function<void()> on_complete;
    /// Position of this flow's entry in link_flows_[route[i]], per hop.
    std::vector<std::uint32_t> link_pos;
    std::uint32_t down_links = 0;    ///< route hops currently down
    std::uint32_t active_pos = kNpos;  ///< index in active_, kNpos if rate 0
    bool in_use = false;
  };

  /// One flow occurrence on a link: slot index + which hop of its route.
  struct LinkFlowRef {
    std::uint32_t slot;
    std::uint32_t route_pos;
  };

  /// Mutable fault-injection state, parallel to links_.
  struct LinkState {
    bool up = true;
    double bandwidth_factor = 1.0;
    double extra_loss_rate = 0.0;
  };

  /// The earliest completion seen so far: least (dt, id).
  struct Completion {
    double dt = std::numeric_limits<double>::infinity();
    FlowId id = 0;
    std::uint32_t slot = kNpos;
    void offer(double flow_dt, FlowId flow_id, std::uint32_t flow_slot) {
      if (flow_dt < dt || (flow_dt == dt && flow_id < id)) {
        dt = flow_dt;
        id = flow_id;
        slot = flow_slot;
      }
    }
  };

  struct InjectionWindow {
    double start_s = 0.0;
    double end_s = 0.0;
    std::size_t link = kAllLinks;
    double delay_s = 0.0;
    double drop_prob = 0.0;
  };

  /// Zero-byte flows, as advance_to_now() records them: an entry is live
  /// while its slot still holds that flow id.
  struct ZeroBytes {
    FlowId id;
    std::uint32_t slot;
  };

  void advance_to_now();
  /// After a change has added its seeds: stale the scheduled completion
  /// and reserve the sequence number of its replacement.
  void defer_solve();
  /// The lowest-id moving flow with 0 wire bytes left, or kNpos.
  std::uint32_t zero_time_completion();
  /// Solve the rates and drop the seeds the solve covered.
  void solve_rates();
  void schedule_next_completion();
  /// Schedule `slot`'s completion `dt` from now in the place the last
  /// change reserved, stale once the epoch moves on.
  void schedule_completion(double dt, std::uint32_t slot);
  void complete_flow(std::uint32_t slot);

  std::uint32_t alloc_slot();
  /// Seed its route links, unlink from the adjacency index and the flow
  /// lists, free the slot. Does not recompute rates.
  void remove_flow(std::uint32_t slot);
  /// Set a flow's rate, maintaining the active list.
  inline void set_rate(std::uint32_t slot, double rate);
  /// Count a flow that starts or stops moving on each link of its route,
  /// maintaining the loaded-link count.
  void add_load(const Flow& f);
  void drop_load(const Flow& f);

  /// Recompute rates over the connected component(s) reachable from the
  /// pending seed flows (freed slots skipped) and links. Falls through to
  /// the reference solver when requested.
  void recompute_incremental();
  /// Progressive water-filling over `links`, with crossing_ already
  /// holding each link's count of non-stalled flows. `full` says the flow
  /// set is every in-flight flow: walk by_id_ and pick the next completion
  /// into next_. Otherwise it is affected_, the closed sub-problem
  /// collected by recompute_incremental.
  void solve_over(const std::vector<LinkId>& links, bool full);
  /// From-scratch water-filling over every flow and link.
  void solve_reference();
  /// Assert the reference solver reproduces the current rates bitwise.
  void verify_against_reference();
  /// Assert a reference solve picks `zero` to complete at dt = 0.
  void verify_zero_time_pick(std::uint32_t zero);
  /// Assert the maintained link loads and zero-byte records equal a
  /// recount.
  void verify_counts() const;

  Simulator* sim_;
  std::vector<LinkSpec> links_;
  std::vector<LinkState> link_state_;
  std::vector<InjectionWindow> injections_;
  util::Rng inject_rng_{0xFA17ULL};

  // Slot-indexed flow table + adjacency.
  std::vector<Flow> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::unordered_map<FlowId, std::uint32_t> id_to_slot_;
  std::vector<std::vector<LinkFlowRef>> link_flows_;  ///< parallel to links_
  std::vector<std::uint32_t> active_;  ///< slots with rate > 0
  /// Per link: route occurrences of non-stalled flows; and the number of
  /// links where it is nonzero.
  std::vector<std::uint32_t> link_load_;
  std::size_t loaded_links_ = 0;
  /// Every in-flight flow with 0 wire bytes left, and dead entries;
  /// descending id, so the lowest is at the back.
  std::vector<ZeroBytes> zero_bytes_;
  // In-use slots in ascending flow id; an entry is live while by_id_pos_
  // points at it. start_flow compacts the dead ones once most are dead.
  std::vector<std::uint32_t> by_id_;
  std::vector<std::uint32_t> by_id_pos_;  ///< per slot; kNpos when free
  std::size_t num_flows_ = 0;

  // Deferred solve: seeds since the last one, latest reserved sequence.
  // rates_stale_: a zero-time completion is scheduled and the seeds wait
  // for the solve.
  std::vector<std::uint32_t> pending_flows_;
  std::vector<LinkId> pending_links_;
  bool solve_pending_ = false;
  bool rates_stale_ = false;
  std::uint64_t pending_seq_ = 0;

  // Solver scratch (persistent to avoid per-solve allocation). residual_/
  // crossing_ values are only meaningful for the links touched by the
  // current solve; *_mark_ stamps identify membership per BFS.
  std::vector<double> residual_;
  std::vector<std::uint32_t> crossing_;
  std::vector<std::uint64_t> link_mark_;
  std::vector<std::uint64_t> flow_mark_;
  std::uint64_t mark_stamp_ = 0;
  std::vector<std::uint32_t> affected_;
  std::vector<LinkId> touched_links_;
  std::vector<std::uint32_t> unfixed_;
  std::vector<std::uint32_t> still_unfixed_;
  std::vector<std::uint64_t> id_bits_;  ///< solve's flows, by by_id_ place
  std::vector<std::pair<std::uint32_t, double>> rate_snapshot_;
  Completion next_;          ///< picked by the last full solve
  bool fused_pick_ = false;  ///< next_ is current (last solve was full)

  SolveStats stats_;
  bool use_reference_solver_ = false;
  bool check_reference_ = false;

  FlowTraceHooks hooks_;

  FlowId next_flow_id_ = 1;
  std::uint64_t epoch_ = 0;  ///< invalidates stale completion events
  SimTime last_advance_ = 0.0;
  double bytes_delivered_ = 0.0;
  double payload_in_flight_ = 0.0;
  std::size_t flows_cancelled_ = 0;
  std::size_t messages_dropped_ = 0;
  std::size_t messages_delayed_ = 0;
};

}  // namespace osp::sim
