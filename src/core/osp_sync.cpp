#include "core/osp_sync.hpp"

#include <algorithm>

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
                {.collecting_round = [this](std::size_t) { return round_ + 1; },
                 .deposed = [this](std::size_t p) { drop_rs_arrivals(p); },
                 .repush = [this](std::size_t p) { repush_shard(p); }});
  rs_arrived_.assign(num_ps_,
                     std::vector<std::uint8_t>(eng.num_workers(), 0));

  const std::size_t n = eng.num_workers();
  round_ = 0;
  rs_shards_arrived_.assign(n, 0);
  rs_contributed_.assign(n, false);
  rs_contributed_count_ = 0;
  rs_awaiting_.assign(n, false);
  rs_awaiting_round_.assign(n, 0);
  rs_pending_.assign(n, 0);
  rs_timer_armed_ = false;
  // Same gate as BSP: skip-done-workers is survival-contract behavior and
  // must not change clean-run barrier semantics.
  survival_ = timeouts().rs_timeout_s > 0.0 ||
              !eng.config().faults.events().empty();
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

double OspSync::ps_bytes(const Gib& gib, std::size_t ps,
                         bool important) const {
  // Ascending-key accumulation via the KV selection helper — the same
  // float order the pre-KV implementation used (the goldens pin it).
  const auto& bytes = eng().all_block_bytes();
  std::vector<std::uint8_t> keep(bytes.size(), 0);
  for (std::size_t b = 0; b < bytes.size(); ++b) {
    keep[b] = part_.owner[b] == ps && gib.important(b) == important ? 1 : 0;
  }
  return kv::selected_bytes(keep, bytes);
}

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
  const std::uint64_t r = round_ + 1;
  rs_awaiting_[worker] = true;
  rs_awaiting_round_[worker] = r;
  for (std::size_t p = 0; p < num_ps_; ++p) {
    push_rs_shard(worker, r, p);
  }
  arm_rs_timer();
}

void OspSync::push_rs_shard(std::size_t worker, std::uint64_t round,
                            std::size_t p) {
  // Whole chain down: the push is re-issued when a restart repoints the
  // shard (repush_shard re-pushes for every worker still awaiting).
  const kv::KvMessage m =
      shard_message(kv::Op::kPush, static_cast<std::uint32_t>(worker), round,
                    p, gib_, /*important=*/true);
  session_.push(worker, p, m, /*owned=*/true, [this, round, p, worker] {
    on_rs_push_arrived(round, p, worker);
  });
}

void OspSync::arm_rs_timer() {
  const double deadline = timeouts().rs_timeout_s;
  if (deadline <= 0.0 || rs_timer_armed_) return;
  rs_timer_armed_ = true;
  const std::uint64_t r = round_ + 1;
  eng().sim().schedule(deadline, [this, r] {
    if (r != round_ + 1) return;  // the round closed naturally
    rs_timer_armed_ = false;
    // Quiescent expiry (e.g. the watchdog armed at the last close of the
    // run): nothing arrived and nobody is stuck — not a timeout.
    runtime::Engine& e = eng();
    bool pending = rs_contributed_count_ > 0;
    for (std::size_t w = 0; w < e.num_workers() && !pending; ++w) {
      pending = rs_awaiting_[w] && e.worker_alive(w);
    }
    if (!pending) return;
    e.record_round_timeout();
    close_rs();
    ++e.telemetry_round(round_).timeouts;  // round_ is the round just closed
  });
}

void OspSync::on_rs_push_arrived(std::uint64_t round, std::size_t p,
                                 std::size_t worker) {
  if (round != round_ + 1) {
    // Late shard from a round that already closed: the gradient is stale —
    // discard it and resync the worker so it can rejoin.
    if (rs_awaiting_[worker] && eng().worker_alive(worker))
      catch_up(worker);
    return;
  }
  if (rs_arrived_[p][worker] != 0) return;  // re-push raced its original
  rs_arrived_[p][worker] = 1;
  if (++rs_shards_arrived_[worker] < num_ps_) return;
  rs_contributed_[worker] = true;
  ++rs_contributed_count_;
  maybe_close_rs();
}

void OspSync::on_worker_crashed(std::size_t worker) {
  ++unhealthy_;
  rs_awaiting_[worker] = false;  // its flows are cancelled
  rs_pending_[worker] = 0;
  // Partial shard pushes can no longer complete; a finished contribution
  // is kept (the gradient already reached every shard).
  if (!rs_contributed_[worker]) {
    rs_shards_arrived_[worker] = 0;
    for (std::size_t p = 0; p < num_ps_; ++p) rs_arrived_[p][worker] = 0;
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
  maybe_close_rs();  // the RS barrier may now be satisfiable
}

void OspSync::on_worker_restarted(std::size_t worker) {
  (void)worker;
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
    OSP_CHECK(rs_shards_arrived_[w] > 0, "RS arrival accounting underflow");
    --rs_shards_arrived_[w];
    if (rs_contributed_[w]) {
      rs_contributed_[w] = false;
      --rs_contributed_count_;
    }
  }
}

void OspSync::repush_shard(std::size_t p) {
  runtime::Engine& e = eng();
  // Workers still awaiting the collecting round re-push this shard (their
  // original flows, if in flight, are epoch-fenced).
  const std::uint64_t collecting = round_ + 1;
  for (std::size_t w = 0; w < e.num_workers(); ++w) {
    if (!e.worker_alive(w)) continue;
    if (!rs_awaiting_[w] || rs_awaiting_round_[w] != collecting) continue;
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
      session_.push(w, p, m, /*owned=*/true,
                    [this, rnd, p, w] { on_ics_push_arrived(rnd, p, w); });
    }
  }
}

void OspSync::maybe_close_rs() {
  if (rs_contributed_count_ == 0) return;
  runtime::Engine& e = eng();
  const std::size_t n = e.num_workers();
  for (std::size_t w = 0; w < n; ++w) {
    if (rs_contributed_[w] || !e.worker_alive(w)) continue;
    if (survival_ && e.worker_done(w)) continue;
    // A stuck worker (awaiting a response from an older round, e.g. one
    // whose RS response was dropped) will never push again — the timeout
    // path resyncs it; everyone else we genuinely wait for.
    if (rs_awaiting_[w] && rs_awaiting_round_[w] <= round_) continue;
    return;
  }
  close_rs();
}

void OspSync::close_rs() {
  runtime::Engine& e = eng();
  const std::size_t n = e.num_workers();
  const std::vector<bool> contributors = rs_contributed_;
  const std::size_t contributed = rs_contributed_count_;
  const std::uint64_t this_round = ++round_;
  rs_timer_armed_ = false;
  rs_shards_arrived_.assign(n, 0);
  rs_contributed_.assign(n, false);
  rs_contributed_count_ = 0;
  for (auto& row : rs_arrived_) {
    std::fill(row.begin(), row.end(), std::uint8_t{0});
  }

  // Telemetry record for this round — created before the empty-round early
  // return so timed-out rounds with zero contributors stay visible, and
  // before the resync loop so catch_up's retry counts land on it.
  {
    runtime::SyncTelemetry& rec = e.telemetry_round(this_round);
    rec.contributors = contributed;
    rec.ics_budget_bytes = ics_budget_;
  }

  // Resync healthy workers whose push missed the round. A worker stays
  // `rs_awaiting_` until some response is delivered, so a lost catch-up
  // pull is retried at the next close; duplicate deliveries no-op.
  bool resyncing = false;
  for (std::size_t w = 0; w < n; ++w) {
    if (rs_awaiting_[w] && e.worker_alive(w)) {
      resyncing = true;
      if (!contributors[w]) catch_up(w);
    }
  }
  // Watchdog: while any healthy worker still waits on a response, keep a
  // timer armed so a dropped response or catch-up pull is retried at the
  // next expiry instead of deadlocking the cluster.
  if (resyncing && !e.stopping()) arm_rs_timer();
  if (contributed == 0) return;  // nothing arrived: no step this round

  // Aggregate the round's *full* gradients once; the unimportant part is
  // exactly what the workers' ICS pushes will deliver, so the snapshot
  // keeps the numerics identical while the bytes flow on the virtual wire.
  // §2.1.1: weight by sample share; a partial round renormalizes over the
  // contributors while the full-round path keeps the exact historical
  // arithmetic.
  agg_.assign(e.global_params().size(), 0.0f);
  if (contributed == n) {
    for (std::size_t w = 0; w < n; ++w) {
      util::axpy(static_cast<float>(e.worker_weight(w)),
                 e.worker_gradient(w), agg_);
    }
  } else {
    double weight_sum = 0.0;
    for (std::size_t w = 0; w < n; ++w) {
      if (contributors[w]) weight_sum += e.worker_weight(w);
    }
    // Defensive twin of the contributed == 0 gate above: a contributor set
    // whose weights sum to zero must close as a no-op, not divide by zero.
    if (weight_sum <= 0.0) return;
    for (std::size_t w = 0; w < n; ++w) {
      if (!contributors[w]) continue;
      util::axpy(static_cast<float>(e.worker_weight(w) / weight_sum),
                 e.worker_gradient(w), agg_);
    }
  }
  if (ema_lgp_ != nullptr) ema_lgp_->observe_global(agg_);

  // (b) Step the important blocks of the global model.
  const std::vector<bool> stepped = mask_from_gib(gib_, true);
  e.apply_global_step_blocks(agg_, stepped);
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
    recipients[w] =
        contributors[w] && e.worker_alive(w) && rs_awaiting_[w];
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
        [this, p, resp = std::move(resp), round_gib, lr,
         recipients](std::size_t host) {
          for (std::size_t w = 0; w < eng().num_workers(); ++w) {
            if (!recipients[w]) continue;
            session_.tx().respond(w, host, resp, /*owned=*/true,
                                  [this, w, p, round_gib, lr] {
                                    deliver_rs(w, p, round_gib, lr);
                                  });
          }
        });
  }
  start_ics_round(this_round, round_gib, recipients);
}

void OspSync::deliver_rs(std::size_t w, std::size_t p, const Gib& round_gib,
                         double lr) {
  runtime::Engine& e = eng();
  if (!e.worker_alive(w) || rs_pending_[w] == 0) return;
  // Install this shard's important blocks (the restricted view encodes the
  // selection as its important set).
  copy_important_blocks(e.worker_params(w), e.global_params(), e.blocks(),
                        restrict_to_ps(round_gib, p, /*want_important=*/true,
                                       /*encode_as_important=*/true));
  if (--rs_pending_[w] > 0) return;
  // Last shard delivered: LGP prediction + next iteration.
  rs_awaiting_[w] = false;
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

void OspSync::catch_up(std::size_t worker) {
  runtime::Engine& e = eng();
  // The pull is served by whichever host currently serves shard 0; with
  // the whole chain down it is skipped — the RS watchdog retries at the
  // next expiry (the worker stays rs_awaiting_).
  const std::size_t src = session_.serving(0);
  if (src == kv::ShardSession::npos) return;
  e.record_catch_up_pull();
  ++e.telemetry_round(round_).retries;
  // Full-model resync pull: every segment, current versions.
  kv::KvMessage pull;
  pull.begin(kv::Op::kPullResponse, static_cast<std::uint32_t>(src), round_,
             session_.store().key_range());
  session_.store().stamp_versions(pull);
  pull.set_accounting(e.model_bytes());
  session_.tx().respond(worker, src, pull, /*owned=*/true, [this, worker] {
    runtime::Engine& e2 = eng();
    if (!e2.worker_alive(worker) || !rs_awaiting_[worker]) return;
    rs_awaiting_[worker] = false;
    rs_pending_[worker] = 0;
    util::copy(e2.global_params(), e2.worker_params(worker));
    e2.finish_sync(worker);
  });
}

Gib OspSync::compute_next_gib() {
  runtime::Engine& e = eng();
  // §4.3 under faults: while any worker or PS host is down, degrade to
  // RS-only (all blocks important, no ICS) — Algorithm 1's budget resumes
  // on recovery.
  if (unhealthy_ > 0) return Gib::all_important(e.num_blocks());
  if (e.num_ps_crashed() > 0) return Gib::all_important(e.num_blocks());
  if (ics_budget_ <= 0.0) return Gib::all_important(e.num_blocks());
  std::vector<double> importance;
  switch (options_.ranking) {
    case OspOptions::Ranking::kPgp:
      importance = density_normalize(
          pgp_importance(e.global_params(), agg_, e.blocks()), e.blocks());
      break;
    case OspOptions::Ranking::kPgpSum:
      importance = pgp_importance(e.global_params(), agg_, e.blocks());
      break;
    case OspOptions::Ranking::kMagnitude:
      importance = magnitude_importance(agg_, e.blocks());
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
  std::size_t member_count = 0;
  for (std::size_t w = 0; w < members.size(); ++w) {
    if (members[w]) ++member_count;
  }
  if (member_count == 0) return;
  IcsRound state;
  state.round = round;
  state.gib = gib;
  state.grad = agg_;  // snapshot: workers' buffers get reused next round
  state.members = members;
  state.arrived_from.assign(
      num_ps_, std::vector<bool>(e.num_workers(), false));
  state.applied.assign(num_ps_, false);
  // Shards that carry no unimportant bytes have nothing to wait for.
  for (std::size_t p = 0; p < num_ps_; ++p) {
    if (ps_bytes(gib, p, /*important=*/false) <= 0.0) {
      state.applied[p] = true;
    }
  }
  ics_inflight_.push_back(std::move(state));
  if (e.tracing()) {
    // One ICS span per member, open from the first unimportant push until
    // the member's last shard correction lands (ics_trace_note_correction).
    std::size_t carrying = 0;
    for (std::size_t p = 0; p < num_ps_; ++p) {
      if (ps_bytes(gib, p, /*important=*/false) > 0.0) ++carrying;
    }
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
      session_.push(w, p, m, /*owned=*/true,
                    [this, round, p, w] { on_ics_push_arrived(round, p, w); });
    }
  }
  if (timeouts().ics_timeout_s > 0.0) {
    e.sim().schedule(timeouts().ics_timeout_s, [this, round] {
      auto it = std::find_if(
          ics_inflight_.begin(), ics_inflight_.end(),
          [round](const IcsRound& r) { return r.round == round; });
      if (it == ics_inflight_.end()) return;  // completed in time
      eng().record_ics_abandoned();
      ics_inflight_.erase(it);
      ics_trace_abandon(round);
    });
  }
}

void OspSync::on_ics_push_arrived(std::uint64_t round, std::size_t ps,
                                  std::size_t worker) {
  auto it = std::find_if(
      ics_inflight_.begin(), ics_inflight_.end(),
      [round](const IcsRound& r) { return r.round == round; });
  if (it == ics_inflight_.end()) return;  // round abandoned or timed out
  it->arrived_from[ps][worker] = true;
  check_ics_round(round);
}

void OspSync::check_ics_round(std::uint64_t round) {
  runtime::Engine& e = eng();
  auto it = std::find_if(
      ics_inflight_.begin(), ics_inflight_.end(),
      [round](const IcsRound& r) { return r.round == round; });
  if (it == ics_inflight_.end()) return;

  bool any_member = false;
  for (std::size_t w = 0; w < it->members.size(); ++w) {
    if (it->members[w]) any_member = true;
  }
  if (!any_member) {
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
            session_.tx().respond(
                w, host, resp, /*owned=*/true,
                [this, w, round, shard_view] {
                  deliver_ics(w, round, shard_view);
                });
          }
        },
        host);
  }

  bool all_applied = true;
  for (std::size_t p = 0; p < num_ps_; ++p) {
    if (!it->applied[p]) all_applied = false;
  }
  if (all_applied) {
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
  w.u8(4);  // OSP state version (4: failover state in the shard session)
  w.u64(round_);
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
  w.size_vec(rs_shards_arrived_);
  w.bool_vec(rs_contributed_);
  w.u64(rs_contributed_count_);
  w.bool_vec(rs_awaiting_);
  w.u64_vec(rs_awaiting_round_);
  w.size_vec(rs_pending_);
  session_.save_state(w);
}

void OspSync::load_state(util::serde::Reader& r) {
  const std::uint8_t version = r.u8();
  OSP_CHECK(version == 4, "unsupported OSP state version");
  round_ = r.u64();
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
  rs_shards_arrived_ = r.size_vec();
  rs_contributed_ = r.bool_vec();
  rs_contributed_count_ = static_cast<std::size_t>(r.u64());
  rs_awaiting_ = r.bool_vec();
  rs_awaiting_round_ = r.u64_vec();
  rs_pending_ = r.size_vec();
  const std::size_t n = eng().num_workers();
  OSP_CHECK(last_ics_applied_.size() == n && rs_shards_arrived_.size() == n &&
                rs_contributed_.size() == n && rs_awaiting_.size() == n &&
                rs_awaiting_round_.size() == n && rs_pending_.size() == n,
            "OSP checkpoint worker count mismatch");
  session_.load_state(r);
  rs_timer_armed_ = false;  // re-armed by the next push
  ics_inflight_.clear();    // drained before every snapshot
  // Collecting-round bookkeeping is empty at the drain barrier.
  rs_arrived_.assign(num_ps_, std::vector<std::uint8_t>(n, 0));
}

bool OspSync::drained() const {
  return ics_inflight_.empty() && !rs_timer_armed_ &&
         rs_contributed_count_ == 0 &&
         std::none_of(rs_awaiting_.begin(), rs_awaiting_.end(),
                      [](bool b) { return b; }) &&
         std::all_of(rs_pending_.begin(), rs_pending_.end(),
                     [](std::size_t v) { return v == 0; });
}

}  // namespace osp::core
