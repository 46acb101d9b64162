#include "sim/network.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/check.hpp"
#include "util/serde.hpp"

namespace osp::sim {

Network::Network(Simulator& sim) : sim_(&sim) { sim.attach(*this); }

Network::~Network() { sim_->detach(*this); }

LinkId Network::add_link(double bandwidth_bytes_per_s, double latency_s,
                         double loss_rate, double incast_alpha) {
  OSP_CHECK(bandwidth_bytes_per_s > 0.0, "link bandwidth must be positive");
  OSP_CHECK(latency_s >= 0.0, "negative latency");
  OSP_CHECK(loss_rate >= 0.0 && loss_rate < 1.0, "loss rate must be in [0,1)");
  OSP_CHECK(incast_alpha >= 0.0, "incast alpha must be non-negative");
  links_.push_back({bandwidth_bytes_per_s, latency_s, loss_rate, incast_alpha});
  link_state_.push_back({});
  link_flows_.emplace_back();
  residual_.push_back(0.0);
  crossing_.push_back(0);
  link_mark_.push_back(0);
  link_load_.push_back(0);
  return links_.size() - 1;
}

const LinkSpec& Network::link(LinkId id) const {
  OSP_CHECK(id < links_.size(), "link id out of range");
  return links_[id];
}

std::uint32_t Network::alloc_slot() {
  if (free_slots_.empty()) {
    slots_.emplace_back();
    flow_mark_.push_back(0);
    by_id_pos_.push_back(kNpos);
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  Flow& f = slots_[slot];
  f.rate = 0.0;
  f.down_links = 0;
  f.active_pos = kNpos;
  return slot;
}

inline void Network::set_rate(std::uint32_t slot, double rate) {
  Flow& f = slots_[slot];
  const bool was_active = f.rate > 0.0;
  const bool is_active = rate > 0.0;
  f.rate = rate;
  if (is_active == was_active) return;  // the common case: no list change
  if (is_active) {
    f.active_pos = static_cast<std::uint32_t>(active_.size());
    active_.push_back(slot);
  } else {
    const std::uint32_t last = active_.back();
    active_[f.active_pos] = last;
    slots_[last].active_pos = f.active_pos;
    active_.pop_back();
    f.active_pos = kNpos;
  }
}

void Network::add_load(const Flow& f) {
  for (const LinkId l : f.route) {
    if (link_load_[l]++ == 0) ++loaded_links_;
  }
}

void Network::drop_load(const Flow& f) {
  for (const LinkId l : f.route) {
    if (--link_load_[l] == 0) --loaded_links_;
  }
}

void Network::remove_flow(std::uint32_t slot) {
  Flow& f = slots_[slot];
  set_rate(slot, 0.0);
  if (f.down_links == 0) drop_load(f);
  pending_links_.insert(pending_links_.end(), f.route.begin(), f.route.end());
  by_id_pos_[slot] = kNpos;
  for (std::size_t i = 0; i < f.route.size(); ++i) {
    std::vector<LinkFlowRef>& refs = link_flows_[f.route[i]];
    const std::uint32_t pos = f.link_pos[i];
    refs[pos] = refs.back();
    // refs[pos] now holds the moved-in occurrence; repoint its owner (which
    // may be this same flow when its route crosses the link twice).
    slots_[refs[pos].slot].link_pos[refs[pos].route_pos] = pos;
    refs.pop_back();
  }
  id_to_slot_.erase(f.id);
  f.on_complete = nullptr;
  f.in_use = false;
  free_slots_.push_back(slot);
  --num_flows_;
}

FlowId Network::start_flow(std::vector<LinkId> route, double bytes,
                           std::function<void()> on_complete,
                           double extra_latency_s) {
  OSP_CHECK(!route.empty(), "flow needs a route");
  OSP_CHECK(bytes >= 0.0 && std::isfinite(bytes),
            "flow size must be finite and non-negative");
  OSP_CHECK(extra_latency_s >= 0.0 && std::isfinite(extra_latency_s),
            "transfer overhead must be finite and non-negative");
  double latency = extra_latency_s;
  double loss_factor = 1.0;
  for (LinkId id : route) {
    const LinkSpec& l = link(id);
    latency += l.latency_s;
    loss_factor *= 1.0 + l.loss_rate + link_state_[id].extra_loss_rate;
  }
  // Message-level injection: windows covering this instant and route.
  if (!injections_.empty()) {
    const SimTime now = sim_->now();
    for (const InjectionWindow& win : injections_) {
      if (now < win.start_s || now >= win.end_s) continue;
      const bool on_route =
          win.link == kAllLinks ||
          std::find(route.begin(), route.end(), win.link) != route.end();
      if (!on_route) continue;
      if (win.drop_prob > 0.0 && inject_rng_.bernoulli(win.drop_prob)) {
        ++messages_dropped_;
        return kNoFlow;  // the message simply never arrives
      }
      if (win.delay_s > 0.0) {
        latency += win.delay_s;
        ++messages_delayed_;
      }
    }
  }
  advance_to_now();
  const FlowId id = next_flow_id_++;
  if (bytes <= 0.0) {
    // Pure-latency flow: consumes no bandwidth, does not disturb rates.
    if (on_complete != nullptr) sim_->schedule(latency, std::move(on_complete));
    return id;
  }
  const std::uint32_t slot = alloc_slot();
  Flow& f = slots_[slot];
  f.id = id;
  f.route = std::move(route);
  f.payload_bytes = bytes;
  f.wire_bytes_remaining = bytes * loss_factor;
  f.latency = latency;
  f.on_complete = std::move(on_complete);
  f.in_use = true;
  if (by_id_.size() > 2 * num_flows_ + 64) {
    // Mostly dead entries: compact, keeping the live ones in order.
    std::uint32_t live = 0;
    for (std::uint32_t i = 0; i < by_id_.size(); ++i) {
      const std::uint32_t s = by_id_[i];
      if (by_id_pos_[s] != i) continue;  // freed, or restarted later
      by_id_pos_[s] = live;
      by_id_[live++] = s;
    }
    by_id_.resize(live);
  }
  by_id_pos_[slot] = static_cast<std::uint32_t>(by_id_.size());
  by_id_.push_back(slot);  // the new id is the largest
  f.link_pos.resize(f.route.size());
  f.down_links = 0;
  for (std::size_t i = 0; i < f.route.size(); ++i) {
    const LinkId l = f.route[i];
    f.link_pos[i] = static_cast<std::uint32_t>(link_flows_[l].size());
    link_flows_[l].push_back({slot, static_cast<std::uint32_t>(i)});
    if (!link_state_[l].up) ++f.down_links;
  }
  if (f.down_links == 0) add_load(f);
  id_to_slot_[id] = slot;
  ++num_flows_;
  payload_in_flight_ += bytes;
  if (hooks_.started) hooks_.started(id, f.route, sim_->now(), bytes);
  pending_flows_.push_back(slot);
  defer_solve();
  return id;
}

double Network::flow_rate(FlowId id) {
  settle();
  solve_deferred_rates();
  const auto it = id_to_slot_.find(id);
  return it == id_to_slot_.end() ? 0.0 : slots_[it->second].rate;
}

bool Network::cancel_flow(FlowId id) {
  const auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end()) return false;
  const std::uint32_t slot = it->second;
  advance_to_now();
  payload_in_flight_ -= slots_[slot].payload_bytes;
  if (hooks_.ended) hooks_.ended(id, sim_->now(), /*cancelled=*/true);
  remove_flow(slot);
  ++flows_cancelled_;
  defer_solve();
  return true;
}

void Network::set_link_up(LinkId id, bool up) {
  OSP_CHECK(id < links_.size(), "link id out of range");
  if (link_state_[id].up == up) return;
  link_state_[id].up = up;
  // Maintain the per-flow down-hop counters on the edge itself so the
  // solver never rescans routes: one increment/decrement per occurrence of
  // this link on a crossing flow's route. A flow that starts or stops
  // moving adds or drops its load on every route link.
  for (const LinkFlowRef& ref : link_flows_[id]) {
    Flow& f = slots_[ref.slot];
    if (up) {
      OSP_CHECK(f.down_links > 0, "down-link counter underflow");
      if (--f.down_links == 0) add_load(f);
    } else if (f.down_links++ == 0) {
      drop_load(f);
    }
    pending_flows_.push_back(ref.slot);
  }
  advance_to_now();
  pending_links_.push_back(id);
  defer_solve();
}

bool Network::link_up(LinkId id) const {
  OSP_CHECK(id < links_.size(), "link id out of range");
  return link_state_[id].up;
}

void Network::set_link_degradation(LinkId id, double bandwidth_factor,
                                   double extra_loss_rate) {
  OSP_CHECK(id < links_.size(), "link id out of range");
  OSP_CHECK(bandwidth_factor > 0.0, "bandwidth factor must be positive");
  OSP_CHECK(extra_loss_rate >= 0.0, "extra loss rate must be non-negative");
  link_state_[id].bandwidth_factor = bandwidth_factor;
  link_state_[id].extra_loss_rate = extra_loss_rate;
  advance_to_now();
  pending_links_.push_back(id);
  defer_solve();
}

double Network::link_capacity(LinkId id) const {
  OSP_CHECK(id < links_.size(), "link id out of range");
  const LinkState& s = link_state_[id];
  return s.up ? links_[id].bandwidth_bps * s.bandwidth_factor : 0.0;
}

void Network::add_injection_window(double start_s, double end_s,
                                   std::size_t link, double delay_s,
                                   double drop_prob) {
  OSP_CHECK(start_s >= 0.0 && end_s > start_s, "bad injection window");
  OSP_CHECK(delay_s >= 0.0, "negative injection delay");
  OSP_CHECK(drop_prob >= 0.0 && drop_prob <= 1.0, "bad drop probability");
  OSP_CHECK(link == kAllLinks || link < links_.size(),
            "injection link out of range");
  injections_.push_back({start_s, end_s, link, delay_s, drop_prob});
}

double Network::ideal_transfer_time(const std::vector<LinkId>& route,
                                    double bytes) const {
  OSP_CHECK(!route.empty(), "route must be non-empty");
  double latency = 0.0;
  double loss_factor = 1.0;
  double bottleneck = std::numeric_limits<double>::infinity();
  for (LinkId id : route) {
    const LinkSpec& l = link(id);
    latency += l.latency_s;
    loss_factor *= 1.0 + l.loss_rate;
    bottleneck = std::min(bottleneck, l.bandwidth_bps);
  }
  return latency + bytes * loss_factor / bottleneck;
}

void Network::advance_to_now() {
  const SimTime now = sim_->now();
  const double dt = now - last_advance_;
  last_advance_ = now;
  if (dt <= 0.0) return;
  OSP_CHECK(!rates_stale_, "simulated time passed with rates unsolved");
  // Zero-rate flows do not move, so only the active list is touched. A
  // flow drained to 0 completes at this instant: record it.
  const std::size_t recorded = zero_bytes_.size();
  for (const std::uint32_t slot : active_) {
    Flow& f = slots_[slot];
    f.wire_bytes_remaining =
        std::max(0.0, f.wire_bytes_remaining - f.rate * dt);
    if (f.wire_bytes_remaining == 0.0) zero_bytes_.push_back({f.id, slot});
  }
  if (zero_bytes_.size() != recorded && zero_bytes_.size() > 1) {
    std::sort(zero_bytes_.begin(), zero_bytes_.end(),
              [](const ZeroBytes& a, const ZeroBytes& b) { return a.id > b.id; });
  }
}

void Network::defer_solve() {
  ++epoch_;
  // No flow left: nothing to solve, no completion to place.
  solve_pending_ = num_flows_ > 0;
  if (solve_pending_) {
    pending_seq_ = sim_->reserve_seq();
  } else {
    pending_flows_.clear();
    pending_links_.clear();
    rates_stale_ = false;
  }
}

std::uint32_t Network::zero_time_completion() {
  // The back holds the lowest id; a stalled entry stays, since its flow
  // completes at once when its link comes back.
  auto live = [this](const ZeroBytes& z) {
    return slots_[z.slot].in_use && slots_[z.slot].id == z.id;
  };
  while (!zero_bytes_.empty() && !live(zero_bytes_.back())) {
    zero_bytes_.pop_back();
  }
  for (std::size_t i = zero_bytes_.size(); i-- > 0;) {
    if (!live(zero_bytes_[i])) {
      zero_bytes_.erase(zero_bytes_.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (slots_[zero_bytes_[i].slot].down_links == 0) {
      return zero_bytes_[i].slot;
    }
  }
  return kNpos;
}

void Network::settle() {
  if (!solve_pending_) return;
  solve_pending_ = false;
  if (check_reference_) verify_counts();
  // A moving flow with no bytes left completes now at any positive rate,
  // the lowest id first, so a solve would place it here; simulated time
  // cannot pass before it fires, so the solve waits.
  const std::uint32_t zero = zero_time_completion();
  if (zero == kNpos) {
    solve_rates();
    schedule_next_completion();
    return;
  }
  rates_stale_ = true;
  if (check_reference_) verify_zero_time_pick(zero);
  schedule_completion(0.0, zero);
}

void Network::solve_deferred_rates() {
  if (rates_stale_) solve_rates();
}

void Network::solve_rates() {
  recompute_incremental();
  pending_flows_.clear();
  pending_links_.clear();
  rates_stale_ = false;
}

void Network::recompute_incremental() {
  ++stats_.solves;
  fused_pick_ = false;
  if (use_reference_solver_) {
    solve_reference();
    return;
  }
  // Closure over the flow↔link bipartite graph: a link pulls in every
  // participating (non-stalled) flow crossing it; a flow pulls in every
  // link on its route. Stalled flows claim no capacity, so they do not
  // couple links and the BFS does not expand through them — but seeded
  // flows always expand (a flow that just stalled frees capacity on its
  // healthy links, and a new or just-unstalled flow claims some).
  ++mark_stamp_;
  affected_.clear();
  touched_links_.clear();
  // Loaded links the closure has reached. Once it has reached them all,
  // every moving flow crosses one of them, so the closure is every moving
  // flow: the full solve's problem.
  std::size_t loaded_touched = 0;
  auto mark_link = [&](LinkId l) {
    if (link_mark_[l] != mark_stamp_) {
      link_mark_[l] = mark_stamp_;
      touched_links_.push_back(l);
      if (link_load_[l] != 0) ++loaded_touched;
    }
  };
  auto add_flow = [&](std::uint32_t slot, const Flow& f) {
    affected_.push_back(slot);
    for (const LinkId l : f.route) mark_link(l);
  };
  for (const std::uint32_t slot : pending_flows_) {
    if (!slots_[slot].in_use || flow_mark_[slot] == mark_stamp_) continue;
    flow_mark_[slot] = mark_stamp_;
    add_flow(slot, slots_[slot]);
  }
  for (const LinkId l : pending_links_) mark_link(l);
  auto handed_over = [&] { return loaded_touched == loaded_links_; };
  for (std::size_t i = 0; i < touched_links_.size() && !handed_over(); ++i) {
    for (const LinkFlowRef& ref : link_flows_[touched_links_[i]]) {
      if (flow_mark_[ref.slot] == mark_stamp_) continue;
      flow_mark_[ref.slot] = mark_stamp_;
      const Flow& f = slots_[ref.slot];
      if (f.down_links != 0) continue;  // stalled: stays at rate 0
      add_flow(ref.slot, f);
    }
  }
  // A complete closure holds every moving flow on its links, so the
  // maintained loads are its crossing counts.
  const bool full = handed_over();
  for (const LinkId l : touched_links_) crossing_[l] = link_load_[l];
  if (full) ++stats_.full_solves;
  solve_over(touched_links_, full);
  fused_pick_ = full;
  if (check_reference_) verify_against_reference();
}

void Network::solve_over(const std::vector<LinkId>& links, bool full) {
  // Progressive water-filling restricted to the affected sub-problem. The
  // arithmetic mirrors solve_reference() exactly: because the sub-problem
  // is closed (no outside flow crosses a touched link), every residual,
  // crossing count, and min-share below takes the same values the full
  // solve would produce for these flows — rates stay bit-identical.
  stats_.flow_visits += full ? num_flows_ : affected_.size();
  // Deterministic order: ascending flow id. Flows routed through a down
  // link stall: rate 0, kept out of water-filling so they don't claim
  // shares on healthy links. Every other flow's rate is written once, when
  // it is fixed, so active_ changes only when a flow starts or stops
  // moving.
  unfixed_.clear();
  auto collect = [this](std::uint32_t slot) {
    if (slots_[slot].down_links != 0) {
      set_rate(slot, 0.0);
    } else {
      unfixed_.push_back(slot);
    }
  };
  if (full) {
    // Every in-flight flow: walk the live by_id_ entries directly.
    for (std::uint32_t i = 0; i < by_id_.size(); ++i) {
      if (by_id_pos_[by_id_[i]] == i) collect(by_id_[i]);
    }
    next_ = {};
  } else {
    // Read off bits set at by_id_ places, no sort.
    id_bits_.assign((by_id_.size() + 63) / 64, 0);
    for (const std::uint32_t slot : affected_) {
      const std::uint32_t pos = by_id_pos_[slot];
      id_bits_[pos / 64] |= std::uint64_t{1} << (pos % 64);
    }
    for (std::size_t w = 0; w < id_bits_.size(); ++w) {
      for (std::uint64_t bits = id_bits_[w]; bits != 0; bits &= bits - 1) {
        collect(by_id_[w * 64 + std::countr_zero(bits)]);
      }
    }
  }
  if (unfixed_.empty()) return;
  for (const LinkId l : links) {
    const double k = static_cast<double>(crossing_[l]);
    // A link's usable capacity shrinks under incast collapse when many
    // flows converge on it.
    const double collapse =
        k > 1.0 ? 1.0 + links_[l].incast_alpha * (k - 1.0) : 1.0;
    residual_[l] =
        links_[l].bandwidth_bps * link_state_[l].bandwidth_factor / collapse;
  }
  // Fix a flow at `share`. A full solve leaves every moving flow fixed
  // here, so it also tracks the earliest completion on the way.
  auto fix = [this, full](std::uint32_t slot, double share) {
    set_rate(slot, share);
    const Flow& f = slots_[slot];
    for (const LinkId l : f.route) {
      residual_[l] -= share;
      --crossing_[l];
    }
    if (full && share > 0.0) {
      next_.offer(f.wire_bytes_remaining / share, f.id, slot);
    }
  };

  while (!unfixed_.empty()) {
    // Find the most constrained link among those carrying unfixed flows.
    double min_share = std::numeric_limits<double>::infinity();
    for (const LinkId l : links) {
      if (crossing_[l] == 0) continue;
      min_share = std::min(min_share,
                           residual_[l] / static_cast<double>(crossing_[l]));
    }
    OSP_CHECK(min_share < std::numeric_limits<double>::infinity(),
              "water-filling found no constrained link");
    // Fix every unfixed flow that crosses a link achieving min_share.
    stats_.flow_visits += unfixed_.size();
    still_unfixed_.clear();
    for (const std::uint32_t slot : unfixed_) {
      bool bottlenecked = false;
      for (const LinkId l : slots_[slot].route) {
        const double share =
            residual_[l] / static_cast<double>(crossing_[l]);
        if (share <= min_share * (1.0 + 1e-12)) {
          bottlenecked = true;
          break;
        }
      }
      if (bottlenecked) {
        fix(slot, min_share);
      } else {
        still_unfixed_.push_back(slot);
      }
    }
    // Guard against numerical stalls: if nothing was fixed, fix everything
    // remaining at the current min share.
    if (still_unfixed_.size() == unfixed_.size()) {
      for (const std::uint32_t slot : unfixed_) fix(slot, min_share);
      still_unfixed_.clear();
    }
    unfixed_.swap(still_unfixed_);
  }
}

void Network::solve_reference() {
  // The pre-incremental algorithm: water-fill from scratch over every flow
  // and every link. Kept as the ground truth the incremental solver is
  // asserted against, and as the "before" configuration for benches.
  affected_.clear();
  touched_links_.clear();
  for (LinkId l = 0; l < links_.size(); ++l) {
    touched_links_.push_back(l);
    crossing_[l] = 0;
  }
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    const Flow& f = slots_[slot];
    if (!f.in_use) continue;
    affected_.push_back(slot);
    if (f.down_links != 0) continue;
    for (const LinkId l : f.route) ++crossing_[l];
  }
  ++stats_.full_solves;
  // The general path (id bits, then a scan of active_): the check stays
  // independent of the full-closure shortcuts.
  solve_over(touched_links_, /*full=*/false);
}

void Network::verify_against_reference() {
  rate_snapshot_.clear();
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].in_use) rate_snapshot_.emplace_back(slot, slots_[slot].rate);
  }
  // The reference run is verification overhead, not solver work: keep it
  // out of the counters the benches report.
  const SolveStats saved = stats_;
  solve_reference();
  stats_ = saved;
  for (const auto& [slot, rate] : rate_snapshot_) {
    OSP_CHECK(slots_[slot].rate == rate,
              "incremental rate solver diverged from reference");
  }
}

void Network::verify_zero_time_pick(std::uint32_t zero) {
  // The reference rates are the ones the deferred solve will set, so
  // setting them early changes nothing; the counters stay as they were.
  const SolveStats saved = stats_;
  solve_reference();
  stats_ = saved;
  Completion scan;
  for (const std::uint32_t slot : active_) {
    const Flow& flow = slots_[slot];
    scan.offer(flow.wire_bytes_remaining / flow.rate, flow.id, slot);
  }
  OSP_CHECK(scan.slot == zero && scan.dt == 0.0,
            "zero-time completion diverged from a solve's pick");
}

void Network::verify_counts() const {
  std::vector<std::uint32_t> load(links_.size(), 0);
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    const Flow& f = slots_[slot];
    if (!f.in_use) continue;
    if (f.down_links == 0) {
      for (const LinkId l : f.route) ++load[l];
    }
    if (f.wire_bytes_remaining == 0.0) {
      OSP_CHECK(std::any_of(zero_bytes_.begin(), zero_bytes_.end(),
                            [&](const ZeroBytes& z) {
                              return z.slot == slot && z.id == f.id;
                            }),
                "zero-byte flow missing from its record");
    }
  }
  std::size_t loaded = 0;
  for (LinkId l = 0; l < links_.size(); ++l) {
    OSP_CHECK(link_load_[l] == load[l], "maintained link load diverged");
    if (load[l] != 0) ++loaded;
  }
  OSP_CHECK(loaded == loaded_links_, "maintained loaded-link count diverged");
}

void Network::schedule_next_completion() {
  if (num_flows_ == 0) return;
  // Find the earliest-finishing flow under current rates: a full solve
  // picked it as it fixed the rates; otherwise scan the active list (only
  // flows with a nonzero rate can finish).
  Completion next = next_;
  if (!fused_pick_ || check_reference_) {
    Completion scan;
    for (const std::uint32_t slot : active_) {
      const Flow& flow = slots_[slot];
      scan.offer(flow.wire_bytes_remaining / flow.rate, flow.id, slot);
    }
    OSP_CHECK(!fused_pick_ || (scan.slot == next.slot && scan.dt == next.dt),
              "fused completion pick diverged from the active-list scan");
    next = scan;
  }
  if (next.slot == kNpos) {
    // Every flow is stalled. Legitimate only under a link outage — the up
    // edge will recompute rates and reschedule; anything else is a bug.
    for (const Flow& flow : slots_) {
      OSP_CHECK(!flow.in_use || flow.down_links > 0,
                "active flows but none progressing");
    }
    return;
  }
  schedule_completion(next.dt, next.slot);
}

void Network::schedule_completion(double dt, std::uint32_t slot) {
  sim_->schedule_reserved(sim_->now() + dt, pending_seq_,
                          [this, epoch = epoch_, slot] {
                            if (epoch != epoch_) return;  // rates changed
                            complete_flow(slot);
                          });
}

void Network::complete_flow(std::uint32_t slot) {
  advance_to_now();
  Flow& f = slots_[slot];
  OSP_CHECK(f.in_use, "completing unknown flow");
  const double latency = f.latency;
  std::function<void()> cb = std::move(f.on_complete);
  bytes_delivered_ += f.payload_bytes;
  payload_in_flight_ -= f.payload_bytes;
  // The flow leaves the wire when its last byte *arrives*, after the
  // route's propagation delay — match what the completion callback sees.
  if (hooks_.ended) hooks_.ended(f.id, sim_->now() + latency, false);
  remove_flow(slot);
  // Last byte leaves now; it arrives after the route's propagation delay.
  if (cb != nullptr) {
    sim_->schedule(latency, std::move(cb));
  }
  defer_solve();
}

void Network::save_state(util::serde::Writer& w) const {
  OSP_CHECK(num_flows_ == 0 && !solve_pending_,
            "network checkpoint requires a quiescent network (flows in "
            "flight or a rate solve pending)");
  w.u8(1);  // network state version
  w.u64(link_state_.size());
  for (const LinkState& ls : link_state_) {
    w.boolean(ls.up);
    w.f64(ls.bandwidth_factor);
    w.f64(ls.extra_loss_rate);
  }
  const util::RngState rng = inject_rng_.state();
  for (std::uint64_t word : rng.s) w.u64(word);
  w.boolean(rng.have_spare_normal);
  w.f64(rng.spare_normal);
  w.u64(next_flow_id_);
  w.f64(bytes_delivered_);
  w.u64(flows_cancelled_);
  w.u64(messages_dropped_);
  w.u64(messages_delayed_);
}

void Network::load_state(util::serde::Reader& r) {
  OSP_CHECK(num_flows_ == 0, "network restore requires no flows in flight");
  const std::uint8_t version = r.u8();
  OSP_CHECK(version == 1, "unsupported network state version");
  const std::uint64_t n = r.u64();
  OSP_CHECK(n == link_state_.size(),
            "checkpoint link count does not match topology");
  for (LinkState& ls : link_state_) {
    ls.up = r.boolean();
    ls.bandwidth_factor = r.f64();
    ls.extra_loss_rate = r.f64();
  }
  util::RngState rng;
  for (std::uint64_t& word : rng.s) word = r.u64();
  rng.have_spare_normal = r.boolean();
  rng.spare_normal = r.f64();
  inject_rng_.set_state(rng);
  next_flow_id_ = r.u64();
  bytes_delivered_ = r.f64();
  flows_cancelled_ = static_cast<std::size_t>(r.u64());
  messages_dropped_ = static_cast<std::size_t>(r.u64());
  messages_delayed_ = static_cast<std::size_t>(r.u64());
}

}  // namespace osp::sim
