#include "core/osp_sync.hpp"

#include <algorithm>
#include <functional>

#include "core/pgp.hpp"
#include "runtime/engine.hpp"
#include "util/check.hpp"
#include "util/serde.hpp"
#include "util/vec_math.hpp"

namespace osp::core {

namespace {
std::vector<bool> mask_from_gib(const Gib& gib, bool important_set) {
  std::vector<bool> mask(gib.size());
  for (std::size_t i = 0; i < gib.size(); ++i) {
    mask[i] = gib.important(i) == important_set;
  }
  return mask;
}
}  // namespace

OspSync::OspSync(OspOptions options)
    : options_(options), rng_(options.seed), gib_(Gib::all_important(0)) {}

std::string OspSync::name() const {
  std::string n = options_.colocated_ps ? "OSP-C" : "OSP";
  if (!options_.enable_lgp) n += "(no-LGP)";
  if (options_.use_ema_lgp) n += "(EMA)";
  if (options_.ranking == OspOptions::Ranking::kPgpSum) n += "(sum)";
  if (options_.ranking == OspOptions::Ranking::kMagnitude) n += "(mag)";
  if (options_.ranking == OspOptions::Ranking::kRandom) n += "(rand)";
  if (options_.fixed_budget_fraction >= 0.0) {
    n += "(fixed=" +
         std::to_string(
             static_cast<int>(options_.fixed_budget_fraction * 100)) +
         "%)";
  }
  if (num_ps_ > 1) n += "(x" + std::to_string(num_ps_) + "PS)";
  return n;
}

void OspSync::attach(runtime::Engine& eng) {
  SyncModel::attach(eng);
  gib_ = Gib::all_important(eng.num_blocks());
  num_ps_ = eng.cluster().num_ps();
  part_ = kv::byte_balanced_partition(eng.all_block_bytes(), num_ps_);

  IcsBudgetParams p;
  // §6.1: with P parameter servers the ICS drains through P independent
  // ingress links, so the Eq. 5 capacity term scales by P.
  p.bandwidth_bytes_per_s =
      sim::gbps_to_bytes_per_sec(eng.cluster().config().link_gbps) *
      static_cast<double>(num_ps_);
  p.loss_rate = eng.cluster().config().loss_rate;
  p.incast_alpha = eng.cluster().config().incast_alpha;
  p.compute_time_s = eng.base_compute_time();
  p.num_workers = eng.num_workers();
  p.model_bytes = eng.model_bytes();
  p.cap_fraction = options_.cap_fraction;
  tuner_ = std::make_unique<SguTuner>(ics_upper_bound(p));

  if (options_.fixed_budget_fraction >= 0.0) {
    ics_budget_ = std::min(options_.fixed_budget_fraction,
                           options_.cap_fraction) *
                  eng.model_bytes();
  } else {
    ics_budget_ = 0.0;  // Algorithm 1 line 9
  }

  if (options_.use_ema_lgp) {
    ema_lgp_ = std::make_unique<EmaLgp>(eng.global_params().size(),
                                        options_.ema_beta,
                                        options_.ema_alpha);
  }
  if (options_.colocated_ps) {
    OSP_CHECK(eng.cluster().config().colocated_ps,
              "OSP-C needs a co-located cluster configuration");
    eng.set_worker_compute_overhead(0, eng.spec().gib_overhead_fraction);
  }
  session_.init(eng, part_, eng.all_block_bytes(), num_ps_,
                {.collecting_round =
                     [this](std::size_t) { return rs_.collecting(); },
                 .deposed = [this](std::size_t p) { drop_rs_arrivals(p); },
                 .repush = [this](std::size_t p) { repush_shard(p); }});
  rs_arrived_.assign(num_ps_,
                     std::vector<std::uint8_t>(eng.num_workers(), 0));

  rs_.attach(eng, timeouts().rs_timeout_s, *this);
  const std::size_t n = eng.num_workers();
  rs_pending_.assign(n, 0);
  unhealthy_ = 0;
  ics_inflight_.clear();
  last_ics_applied_.assign(n, 0);
  ics_rounds_completed_ = 0;
  ics_trace_.clear();
  if (eng.tracing()) {
    // Seed the §5.3 budget curve; on_epoch_complete extends it.
    eng.trace_mutable().add_counter(eng.sim().now(), "ics_budget_bytes",
                                    ics_budget_);
  }
}

double OspSync::u_max() const { return tuner_->u_max(); }

kv::KvMessage OspSync::shard_message(kv::Op op, std::uint32_t sender,
                                     std::uint64_t round, std::size_t ps,
                                     const Gib& gib, bool important) const {
  kv::KvMessage m;
  m.begin(op, sender, round, {});
  const auto& bytes = eng().all_block_bytes();
  double total = 0.0;
  for (std::size_t b = 0; b < bytes.size(); ++b) {
    if (part_.owner[b] == ps && gib.important(b) == important) {
      m.keys.push_back(static_cast<kv::Key>(b));
      total += bytes[b];
    }
  }
  m.set_accounting(total);
  return m;
}

Gib OspSync::restrict_to_ps(const Gib& gib, std::size_t ps,
                            bool want_important,
                            bool encode_as_important) const {
  Gib out = encode_as_important ? Gib::all_unimportant(gib.size())
                                : Gib::all_important(gib.size());
  for (std::size_t b = 0; b < gib.size(); ++b) {
    const bool selected =
        part_.owner[b] == ps && gib.important(b) == want_important;
    if (selected) out.set_important(b, encode_as_important);
  }
  return out;
}

void OspSync::on_gradient_ready(std::size_t worker) {
  rs_.push(worker, rs_.collecting(), [&](std::uint64_t r) {
    for (std::size_t p = 0; p < num_ps_; ++p) push_rs_shard(worker, r, p);
  });
}

void OspSync::push_rs_shard(std::size_t worker, std::uint64_t round,
                            std::size_t p) {
  // Whole chain down: the push is re-issued when a restart repoints the
  // shard (repush_shard re-pushes for every worker still awaiting).
  const kv::KvMessage m =
      shard_message(kv::Op::kPush, static_cast<std::uint32_t>(worker), round,
                    p, gib_, /*important=*/true);
  session_.push(worker, p, m, [this, round, p, worker] {
    on_rs_push_arrived(round, p, worker);
  });
}

void OspSync::on_rs_push_arrived(std::uint64_t round, std::size_t p,
                                 std::size_t worker) {
  if (rs_.late(round, worker)) return;
  if (rs_arrived_[p][worker] != 0) return;  // re-push raced its original
  rs_arrived_[p][worker] = 1;
  for (const auto& shard : rs_arrived_) {
    if (shard[worker] == 0) return;  // a shard has yet to land
  }
  rs_.contribute(worker);
}

void OspSync::on_worker_crashed(std::size_t worker) {
  ++unhealthy_;
  rs_pending_[worker] = 0;
  // Partial shard pushes can no longer complete; a finished contribution
  // is kept (the gradient already reached every shard).
  if (!rs_.contributed(worker)) {
    for (auto& shard : rs_arrived_) shard[worker] = 0;
  }
  // Drop it from every in-flight ICS round; some shards may now complete
  // with the remaining members.
  std::vector<std::uint64_t> affected;
  for (IcsRound& r : ics_inflight_) {
    if (r.members[worker]) {
      r.members[worker] = false;
      affected.push_back(r.round);
    }
  }
  for (std::uint64_t rnd : affected) check_ics_round(rnd);
  // Its open ICS spans die with it (the downtime span covers the gap).
  for (auto it = ics_trace_.begin(); it != ics_trace_.end();) {
    it->second.pending.erase(worker);
    it = it->second.pending.empty() ? ics_trace_.erase(it) : std::next(it);
  }
  rs_.crashed(worker);  // the RS barrier may now be satisfiable
}

void OspSync::on_worker_restarted(std::size_t /*worker*/) {
  OSP_CHECK(unhealthy_ > 0, "restart without a preceding crash");
  --unhealthy_;
}

void OspSync::on_ps_crashed(std::size_t ps) { session_.on_ps_crashed(ps); }

void OspSync::on_ps_restarted(std::size_t ps) {
  session_.on_ps_restarted(ps);
}

void OspSync::drop_rs_arrivals(std::size_t p) {
  // A worker that lost a shard loses its "contributed" mark, so the
  // barrier waits for the re-push.
  for (std::size_t w = 0; w < eng().num_workers(); ++w) {
    if (rs_arrived_[p][w] == 0) continue;
    rs_arrived_[p][w] = 0;
    rs_.withdraw(w);
  }
}

void OspSync::repush_shard(std::size_t p) {
  runtime::Engine& e = eng();
  // Workers still awaiting the collecting round re-push this shard (their
  // original flows, if in flight, are epoch-fenced).
  const std::uint64_t collecting = rs_.collecting();
  for (std::size_t w = 0; w < e.num_workers(); ++w) {
    if (!e.worker_alive(w)) continue;
    if (!rs_.awaiting(w) || rs_.awaiting_round(w) != collecting) continue;
    push_rs_shard(w, collecting, p);
  }
  // In-flight ICS rounds whose shard-p step has not run yet lost whatever
  // the dead host had collected: alive members re-push shard p. Shards
  // already applied stay applied — their step is never re-run.
  for (IcsRound& r : ics_inflight_) {
    if (r.applied[p]) continue;
    kv::KvMessage m = shard_message(kv::Op::kPush, 0, r.round, p, r.gib,
                                    /*important=*/false);
    if (m.value_bytes <= 0.0) continue;
    for (std::size_t w = 0; w < e.num_workers(); ++w) {
      if (!r.members[w] || !e.worker_alive(w)) continue;
      r.arrived_from[p][w] = false;
      m.sender = static_cast<std::uint32_t>(w);
      const std::uint64_t rnd = r.round;
      session_.push(w, p, m,
                    [this, rnd, p, w] { on_ics_push_arrived(rnd, p, w); });
    }
  }
}

void OspSync::round_closed(std::uint64_t round, std::size_t contributed) {
  for (auto& row : rs_arrived_) {
    std::fill(row.begin(), row.end(), std::uint8_t{0});
  }
  // The round's telemetry record: created before the barrier's resync, so
  // catch-up retry counts land on it, and kept for a timed-out round with
  // no contributors, which takes no step.
  runtime::SyncTelemetry& rec = eng().telemetry_round(round);
  rec.contributors = contributed;
  rec.ics_budget_bytes = ics_budget_;
}

void OspSync::step_round(std::uint64_t this_round,
                         const std::vector<bool>& contributors) {
  runtime::Engine& e = eng();
  const std::size_t n = e.num_workers();
  // The aggregate holds the round's *full* gradients; the unimportant part
  // is exactly what the workers' ICS pushes will deliver, so the snapshot
  // keeps the numerics identical while the bytes flow on the virtual wire.
  const std::vector<float>& agg = rs_.aggregate_round();
  if (ema_lgp_ != nullptr) ema_lgp_->observe_global(agg);

  // (b) Step the important blocks of the global model.
  const std::vector<bool> stepped = mask_from_gib(gib_, true);
  e.apply_global_step_blocks(agg, stepped);
  session_.applied(stepped);

  // (c) Asynchronous GIB calculation for the next round.
  const Gib round_gib = gib_;
  gib_ = compute_next_gib();

  {
    // The GIB split this round's bytes travelled under (§4.1).
    runtime::SyncTelemetry& rec = e.telemetry_round(this_round);
    rec.gib_important = round_gib.count_important();
    rec.gib_unimportant = round_gib.count_unimportant();
    rec.important_bytes = round_gib.important_bytes(e.all_block_bytes());
    rec.unimportant_bytes = round_gib.unimportant_bytes(e.all_block_bytes());
    rec.replica_lag = session_.lag();
  }

  const double lr = e.current_lr();
  // RS responses go to the contributors that are still up and waiting; the
  // same set carries the round's ICS pushes.
  std::vector<bool> recipients(n, false);
  for (std::size_t w = 0; w < n; ++w) {
    recipients[w] = contributors[w] && e.worker_alive(w) && rs_.awaiting(w);
    rs_pending_[w] = recipients[w] ? num_ps_ : 0;
  }

  // (d) Per PS shard: the optimizer application over that shard's RS bytes
  // (one job on the shard's serial queue — accumulation streams with the
  // incast arrivals, PGP/sort is the asynchronous GIB calculation of §4.4),
  // then the RS responses carrying the shard's updated important blocks +
  // the new GIB.
  for (std::size_t p = 0; p < num_ps_; ++p) {
    // The response carries the shard's updated important blocks, with the
    // next round's GIB piggybacked in the meta channel (§4.1's PushGIB).
    kv::KvMessage resp =
        shard_message(kv::Op::kPullResponse, static_cast<std::uint32_t>(p),
                      this_round, p, round_gib, /*important=*/true);
    session_.store().stamp_versions(resp);
    resp.meta_bytes += static_cast<double>(gib_.wire_bytes());
    const double bytes = resp.value_bytes;
    session_.answer(
        p, bytes,
        [this, p, resp = std::move(resp), this_round, round_gib, lr,
         recipients](std::size_t host) {
          for (std::size_t w = 0; w < eng().num_workers(); ++w) {
            if (!recipients[w]) continue;
            session_.respond(w, host, resp,
                             [this, w, p, this_round, round_gib, lr] {
                               deliver_rs(w, p, this_round, round_gib, lr);
                             });
          }
        });
  }
  start_ics_round(this_round, round_gib, recipients);
}

void OspSync::deliver_rs(std::size_t w, std::size_t p, std::uint64_t round,
                         const Gib& round_gib, double lr) {
  runtime::Engine& e = eng();
  // A shard's answer to a round older than the one w awaits (held back past
  // a deadline close that w's catch-up then answered) is stale: it must not
  // count against rs_pending_, which belongs to w's current round.
  if (rs_pending_[w] == 0 || !rs_.awaits(w, round)) return;
  // Install this shard's important blocks (the restricted view encodes the
  // selection as its important set).
  copy_important_blocks(e.worker_params(w), e.global_params(), e.blocks(),
                        restrict_to_ps(round_gib, p, /*want_important=*/true,
                                       /*encode_as_important=*/true));
  if (--rs_pending_[w] > 0) return;
  // Last shard delivered: LGP prediction + next iteration.
  rs_.settle(w, round);
  if (options_.enable_lgp) {
    if (ema_lgp_ != nullptr) {
      ema_lgp_->apply_local_step(e.worker_params(w), e.worker_gradient(w), lr,
                                 e.blocks(), round_gib);
    } else {
      lgp_apply_local_step(e.worker_params(w), e.worker_gradient(w), lr,
                           e.blocks(), round_gib);
    }
  }
  e.finish_sync(w);
}

bool OspSync::catch_up(std::size_t worker, std::uint64_t round) {
  runtime::Engine& e = eng();
  const std::size_t src = session_.serving(0);
  if (src == kv::ShardSession::npos) return false;
  // Full-model resync pull: every segment, current versions.
  kv::KvMessage pull;
  pull.begin(kv::Op::kPullResponse, static_cast<std::uint32_t>(src), round,
             session_.store().key_range());
  session_.store().stamp_versions(pull);
  pull.set_accounting(e.model_bytes());
  session_.respond(worker, src, pull, [this, worker, round] {
    if (!rs_.settle(worker, round)) return;
    rs_pending_[worker] = 0;
    runtime::Engine& e2 = eng();
    util::copy(e2.global_params(), e2.worker_params(worker));
    e2.finish_sync(worker);
  });
  return true;
}

Gib OspSync::compute_next_gib() {
  runtime::Engine& e = eng();
  // §4.3 under faults: while any worker or PS host is down, degrade to
  // RS-only (all blocks important, no ICS) — Algorithm 1's budget resumes
  // on recovery.
  if (unhealthy_ > 0) return Gib::all_important(e.num_blocks());
  if (e.num_ps_crashed() > 0) return Gib::all_important(e.num_blocks());
  if (ics_budget_ <= 0.0) return Gib::all_important(e.num_blocks());
  const std::vector<float>& agg = rs_.aggregate();
  std::vector<double> importance;
  switch (options_.ranking) {
    case OspOptions::Ranking::kPgp:
      importance = density_normalize(
          pgp_importance(e.global_params(), agg, e.blocks()), e.blocks());
      break;
    case OspOptions::Ranking::kPgpSum:
      importance = pgp_importance(e.global_params(), agg, e.blocks());
      break;
    case OspOptions::Ranking::kMagnitude:
      importance = magnitude_importance(agg, e.blocks());
      break;
    case OspOptions::Ranking::kRandom:
      importance.resize(e.num_blocks());
      for (double& v : importance) v = rng_.uniform();
      break;
  }
  return Gib::from_ranking(rank_ascending(importance), e.all_block_bytes(),
                           ics_budget_);
}

void OspSync::start_ics_round(std::uint64_t round, const Gib& gib,
                              const std::vector<bool>& members) {
  runtime::Engine& e = eng();
  if (gib.count_unimportant() == 0) return;
  if (std::ranges::none_of(members, std::identity{})) return;
  IcsRound state;
  state.round = round;
  state.gib = gib;
  // Snapshot: the workers' gradient buffers get reused next round.
  state.grad = rs_.aggregate();
  state.members = members;
  state.arrived_from.assign(
      num_ps_, std::vector<bool>(e.num_workers(), false));
  state.applied.assign(num_ps_, false);
  // Shards that carry no unimportant bytes have nothing to wait for.
  std::size_t carrying = 0;
  for (std::size_t p = 0; p < num_ps_; ++p) {
    if (shard_message(kv::Op::kPush, 0, round, p, gib, /*important=*/false)
            .value_bytes > 0.0) {
      ++carrying;
    } else {
      state.applied[p] = true;
    }
  }
  ics_inflight_.push_back(std::move(state));
  if (e.tracing()) {
    // One ICS span per member, open from the first unimportant push until
    // the member's last shard correction lands (ics_trace_note_correction).
    if (carrying > 0) {
      IcsTrace t;
      t.begin_s = e.sim().now();
      for (std::size_t w = 0; w < members.size(); ++w) {
        if (members[w]) t.pending[w] = carrying;
      }
      ics_trace_[round] = std::move(t);
    }
  }
  for (std::size_t p = 0; p < num_ps_; ++p) {
    kv::KvMessage m = shard_message(kv::Op::kPush, 0, round, p, gib,
                                    /*important=*/false);
    if (m.value_bytes <= 0.0) continue;
    // Whole chain down: skipped now, re-pushed when a restart repoints
    // the shard (repush_shard re-drives unapplied ICS shards).
    for (std::size_t w = 0; w < e.num_workers(); ++w) {
      if (!members[w]) continue;
      m.sender = static_cast<std::uint32_t>(w);
      session_.push(w, p, m,
                    [this, round, p, w] { on_ics_push_arrived(round, p, w); });
    }
  }
  if (timeouts().ics_timeout_s > 0.0) {
    e.sim().schedule(timeouts().ics_timeout_s, [this, round] {
      const auto it = find_ics_round(round);
      if (it == ics_inflight_.end()) return;  // completed in time
      eng().record_ics_abandoned();
      ics_inflight_.erase(it);
      ics_trace_abandon(round);
    });
  }
}

std::vector<OspSync::IcsRound>::iterator OspSync::find_ics_round(
    std::uint64_t round) {
  return std::find_if(ics_inflight_.begin(), ics_inflight_.end(),
                      [round](const IcsRound& r) { return r.round == round; });
}

void OspSync::on_ics_push_arrived(std::uint64_t round, std::size_t ps,
                                  std::size_t worker) {
  const auto it = find_ics_round(round);
  if (it == ics_inflight_.end()) return;  // round abandoned or timed out
  it->arrived_from[ps][worker] = true;
  check_ics_round(round);
}

void OspSync::check_ics_round(std::uint64_t round) {
  runtime::Engine& e = eng();
  const auto it = find_ics_round(round);
  if (it == ics_inflight_.end()) return;

  if (std::ranges::none_of(it->members, std::identity{})) {
    // Everyone who owed pushes crashed: the remaining shards will never
    // arrive. Drop the round (already-applied shards keep their step).
    e.record_ics_abandoned();
    ics_inflight_.erase(it);
    ics_trace_abandon(round);
    return;
  }

  for (std::size_t p = 0; p < num_ps_; ++p) {
    if (it->applied[p]) continue;
    // Whole chain down (a member crash can get here): no host can step the
    // shard. Its arrivals sat on a deposed host; the restart's repush
    // re-collects them.
    const std::size_t host = session_.serving(p);
    if (host == kv::ShardSession::npos) continue;
    bool complete = true;
    for (std::size_t w = 0; w < it->members.size(); ++w) {
      if (it->members[w] && !it->arrived_from[p][w]) complete = false;
    }
    if (!complete) continue;
    it->applied[p] = true;

    // All of this shard's unimportant gradients arrived: step its blocks
    // and send the corrected values back (Eq. 7 on the worker side).
    const Gib shard_view =
        restrict_to_ps(it->gib, p, /*want_important=*/false,
                       /*encode_as_important=*/false);
    const std::vector<bool> stepped = mask_from_gib(shard_view, false);
    e.apply_global_step_blocks(it->grad, stepped);
    session_.applied(stepped);

    kv::KvMessage resp =
        shard_message(kv::Op::kPullResponse, static_cast<std::uint32_t>(p),
                      round, p, it->gib, /*important=*/false);
    session_.store().stamp_versions(resp);
    const std::vector<bool> members = it->members;
    // Correction answers queue on the shard's serving host (the one the
    // completing push just landed on). A correction that dies with a
    // crashed queue is NOT re-driven: the member keeps its LGP prediction
    // — exactly the no-correction degradation OSP already tolerates.
    e.ps_submit(
        e.ps_apply_delay(resp.value_bytes, 3.0),
        [this, round, shard_view, resp, members, host] {
          runtime::Engine& en = eng();
          for (std::size_t w = 0; w < en.num_workers(); ++w) {
            if (!members[w] || !en.worker_alive(w)) continue;
            session_.respond(w, host, resp, [this, w, round, shard_view] {
              deliver_ics(w, round, shard_view);
            });
          }
        },
        host);
  }

  if (std::ranges::all_of(it->applied, std::identity{})) {
    ++ics_rounds_completed_;
    ics_inflight_.erase(it);
  }
}

void OspSync::deliver_ics(std::size_t w, std::uint64_t round,
                          const Gib& shard_view) {
  runtime::Engine& e = eng();
  if (!e.worker_alive(w)) return;
  // The bytes arrived either way — the span closes even when a newer round
  // already superseded this correction.
  if (e.tracing()) ics_trace_note_correction(round, w);
  if (round < last_ics_applied_[w]) return;
  if (e.config().record_telemetry) {
    // Eq. 7 magnitude: how far the LGP prediction drifted from the global
    // result over the corrected blocks.
    double sq = 0.0;
    const std::span<const float> gp = e.global_params();
    const std::span<const float> wp = e.worker_params(w);
    for (std::size_t b = 0; b < shard_view.size(); ++b) {
      if (shard_view.important(b)) continue;
      const auto& info = e.blocks()[b];
      for (std::size_t i = info.offset; i < info.offset + info.numel; ++i) {
        const double d =
            static_cast<double>(gp[i]) - static_cast<double>(wp[i]);
        sq += d * d;
      }
    }
    e.telemetry_round(round).lgp_correction_sq += sq;
  }
  lgp_correct_blocks(e.worker_params(w), e.global_params(), e.blocks(),
                     shard_view);
  last_ics_applied_[w] = round;
}

void OspSync::ics_trace_note_correction(std::uint64_t round, std::size_t w) {
  const auto it = ics_trace_.find(round);
  if (it == ics_trace_.end()) return;
  const auto pit = it->second.pending.find(w);
  if (pit == it->second.pending.end()) return;
  if (--pit->second > 0) return;
  runtime::Engine& e = eng();
  e.trace_mutable().add({it->second.begin_s, e.sim().now(), w,
                         e.worker_iteration(w), runtime::TracePhase::kIcs});
  it->second.pending.erase(pit);
  if (it->second.pending.empty()) ics_trace_.erase(it);
}

void OspSync::ics_trace_abandon(std::uint64_t round) {
  const auto it = ics_trace_.find(round);
  if (it == ics_trace_.end()) return;
  runtime::Engine& e = eng();
  for (const auto& [w, left] : it->second.pending) {
    if (!e.worker_alive(w)) continue;
    e.trace_mutable().add({it->second.begin_s, e.sim().now(), w,
                           e.worker_iteration(w), runtime::TracePhase::kIcs});
  }
  ics_trace_.erase(it);
}

void OspSync::on_epoch_complete(std::size_t epoch, double mean_loss) {
  if (options_.fixed_budget_fraction >= 0.0) return;  // ablation: fixed
  ics_budget_ = tuner_->on_epoch_loss(epoch, mean_loss);
  runtime::Engine& e = eng();
  if (e.tracing()) {
    e.trace_mutable().add_counter(e.sim().now(), "ics_budget_bytes",
                                  ics_budget_);
  }
}

void OspSync::save_state(util::serde::Writer& w) const {
  w.u8(5);  // OSP state version (5: the RS stage's round barrier)
  const std::vector<std::uint8_t> gib_bytes = gib_.serialize();
  w.bytes(gib_bytes);
  w.f64(ics_budget_);
  // Algorithm 1 state: u_max is reconstructed from the cluster config in
  // attach(); the loss-driven part must travel.
  w.f64(tuner_->reference_loss());
  w.f64(tuner_->current_budget());
  w.boolean(tuner_->initialized());
  const util::RngState rng = rng_.state();
  for (std::uint64_t word : rng.s) w.u64(word);
  w.boolean(rng.have_spare_normal);
  w.f64(rng.spare_normal);
  w.boolean(ema_lgp_ != nullptr);
  if (ema_lgp_ != nullptr) {
    w.f32_vec(ema_lgp_->ema());
    w.boolean(ema_lgp_->has_history());
  }
  w.u64_vec(last_ics_applied_);
  w.u64(ics_rounds_completed_);
  w.u64(unhealthy_);
  rs_.save_state(w);
  session_.save_state(w);
}

void OspSync::load_state(util::serde::Reader& r) {
  const std::uint8_t version = r.u8();
  OSP_CHECK(version == 5, "unsupported OSP state version");
  gib_ = Gib::deserialize(r.bytes());
  OSP_CHECK(gib_.size() == eng().num_blocks(),
            "OSP checkpoint GIB block count mismatch");
  ics_budget_ = r.f64();
  const double ref_loss = r.f64();
  const double budget = r.f64();
  const bool initialized = r.boolean();
  tuner_->restore(ref_loss, budget, initialized);
  util::RngState rng;
  for (std::uint64_t& word : rng.s) word = r.u64();
  rng.have_spare_normal = r.boolean();
  rng.spare_normal = r.f64();
  rng_.set_state(rng);
  const bool has_ema = r.boolean();
  OSP_CHECK(has_ema == (ema_lgp_ != nullptr),
            "OSP checkpoint EMA-LGP configuration mismatch");
  if (has_ema) {
    std::vector<float> ema(eng().global_params().size());
    r.f32_into(ema);
    const bool has_history = r.boolean();
    ema_lgp_->restore(ema, has_history);
  }
  last_ics_applied_ = r.u64_vec();
  ics_rounds_completed_ = static_cast<std::size_t>(r.u64());
  unhealthy_ = static_cast<std::size_t>(r.u64());
  rs_.load_state(r);
  const std::size_t n = eng().num_workers();
  OSP_CHECK(last_ics_applied_.size() == n,
            "OSP checkpoint worker count mismatch");
  session_.load_state(r);
  // Drained before every snapshot: no ICS round in flight and no RS response
  // pending (rs_pending_ keeps attach's zeros).
  ics_inflight_.clear();
  // Collecting-round bookkeeping is empty at the drain barrier.
  rs_arrived_.assign(num_ps_, std::vector<std::uint8_t>(n, 0));
}

bool OspSync::drained() const {
  return ics_inflight_.empty() && rs_.drained() &&
         std::ranges::all_of(rs_pending_,
                             [](std::size_t v) { return v == 0; });
}

}  // namespace osp::core
