#include "sync/round_barrier.hpp"

#include <algorithm>
#include <functional>

#include "runtime/engine.hpp"
#include "util/serde.hpp"
#include "util/vec_math.hpp"

namespace osp::sync {

void RoundBarrier::attach(runtime::Engine& eng, double rs_timeout_s,
                          Owner& owner) {
  eng_ = &eng;
  rs_timeout_s_ = rs_timeout_s;
  owner_ = &owner;
  // Skipping finished workers is survival-contract behaviour: on a clean
  // run the round waits for every worker, so a straggler with leftover
  // iterations stalls once the others finish and the run ends at the
  // drained event queue.
  survival_ = rs_timeout_s > 0.0 || !eng.config().faults.events().empty();
  const std::size_t n = eng.num_workers();
  round_ = 0;
  contributed_.assign(n, false);
  contributed_count_ = 0;
  awaiting_.assign(n, false);
  awaiting_round_.assign(n, 0);
  timer_armed_ = false;
}

void RoundBarrier::arm_timer() {
  if (rs_timeout_s_ <= 0.0) return;
  const std::uint64_t snapshot = eng_->checkpoints_taken();
  if (timer_armed_ && timer_snapshot_ == snapshot) return;
  timer_armed_ = true;
  timer_snapshot_ = snapshot;
  const std::uint64_t r = collecting();
  eng_->sim().schedule(rs_timeout_s_, [this, r, snapshot] {
    // The round closed naturally, or a snapshot fenced this timer.
    if (r != collecting() || snapshot != eng_->checkpoints_taken()) return;
    timer_armed_ = false;
    // Quiescent expiry (e.g. the watchdog armed at the last close of the
    // run): nothing landed and nobody is stuck.
    runtime::Engine& e = *eng_;
    bool pending = contributed_count_ > 0;
    for (std::size_t w = 0; w < e.num_workers() && !pending; ++w) {
      pending = awaiting_[w] && e.worker_alive(w);
    }
    if (!pending) return;
    e.record_round_timeout();
    close();
    ++e.telemetry_round(round_).timeouts;
  });
}

bool RoundBarrier::late(std::uint64_t round, std::size_t w) {
  if (round == collecting()) return false;
  if (awaiting_[w] && eng_->worker_alive(w)) catch_up(w);
  return true;
}

void RoundBarrier::contribute(std::size_t w) {
  contributed_[w] = true;
  ++contributed_count_;
  maybe_close();
}

void RoundBarrier::withdraw(std::size_t w) {
  if (!contributed_[w]) return;
  contributed_[w] = false;
  --contributed_count_;
}

void RoundBarrier::crashed(std::size_t w) {
  awaiting_[w] = false;
  maybe_close();
}

bool RoundBarrier::awaits(std::size_t w, std::uint64_t round) const {
  return eng_->worker_alive(w) && awaiting_[w] && round >= awaiting_round_[w];
}

bool RoundBarrier::settle(std::size_t w, std::uint64_t round) {
  if (!awaits(w, round)) return false;
  awaiting_[w] = false;
  return true;
}

void RoundBarrier::maybe_close() {
  if (contributed_count_ == 0) return;
  const runtime::Engine& e = *eng_;
  for (std::size_t w = 0; w < e.num_workers(); ++w) {
    if (contributed_[w] || !e.worker_alive(w)) continue;
    if (survival_ && (e.worker_done(w) || e.worker_parked(w))) continue;
    // A stuck worker will never push again: the deadline resyncs it.
    if (awaiting_[w] && awaiting_round_[w] <= round_) continue;
    return;
  }
  close();
}

void RoundBarrier::close() {
  runtime::Engine& e = *eng_;
  const std::size_t n = e.num_workers();
  const std::size_t contributed = contributed_count_;
  closed_.swap(contributed_);
  contributed_.assign(n, false);
  contributed_count_ = 0;
  ++round_;
  timer_armed_ = false;
  owner_->round_closed(round_, contributed);

  bool resyncing = false;
  for (std::size_t w = 0; w < n; ++w) {
    if (awaiting_[w] && e.worker_alive(w)) {
      resyncing = true;
      if (!closed_[w]) catch_up(w);
    }
  }
  // Watchdog: a dropped answer or pull is retried at the next expiry
  // instead of deadlocking the cluster.
  if (resyncing && !e.stopping()) arm_timer();
  if (contributed == 0) return;  // nothing landed: no step this round
  if (contributed != n && closed_weight() <= 0.0) return;
  owner_->step_round(round_, closed_);
}

double RoundBarrier::closed_weight() const {
  double sum = 0.0;
  for (std::size_t w = 0; w < closed_.size(); ++w) {
    if (closed_[w]) sum += eng_->worker_weight(w);
  }
  return sum;
}

const std::vector<float>& RoundBarrier::aggregate_round() {
  const runtime::Engine& e = *eng_;
  // A full round weighs by sample share as is (x / 1.0 == x exactly); a
  // partial one renormalizes over its contributors.
  const double sum =
      std::ranges::all_of(closed_, std::identity{}) ? 1.0 : closed_weight();
  agg_.assign(e.global_params().size(), 0.0f);
  for (std::size_t w = 0; w < closed_.size(); ++w) {
    if (!closed_[w]) continue;
    util::axpy(static_cast<float>(e.worker_weight(w) / sum),
               e.worker_gradient(w), agg_);
  }
  return agg_;
}

void RoundBarrier::catch_up(std::size_t w) {
  if (!owner_->catch_up(w, round_)) return;
  eng_->record_catch_up_pull();
  ++eng_->telemetry_round(round_).retries;
}

void RoundBarrier::save_state(util::serde::Writer& w) const {
  w.u64(round_);
}

void RoundBarrier::load_state(util::serde::Reader& r) { round_ = r.u64(); }

bool RoundBarrier::drained() const {
  return contributed_count_ == 0 &&
         std::ranges::none_of(awaiting_, std::identity{});
}

}  // namespace osp::sync
