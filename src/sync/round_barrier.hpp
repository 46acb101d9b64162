// The gradient-collection barrier shared by BSP (§2.1.2), OSP's Routine
// Synchronization stage (§3) and KV-core BSP (one barrier per KV shard).
// §4.3: with an ICS budget of 0 OSP is BSP, so all three run this one
// barrier.
//
// The barrier owns a round's bookkeeping: the collecting round id; per
// worker whether its push of the round landed (contributed) and whether it
// still awaits an answer, and from which round; the close rule; the deadline
// timer and the watchdog. The sync model owns its traffic: what a push
// carries and when it counts as landed (OSP: once every PS shard has it),
// how the step is applied and answered, and how a catch-up pull travels.
//
// Survival contract (fault injection, see sim/faults.hpp). Every
// barrier-style model keeps it through this class:
//  * Rounds are tagged, so a push that lands after its round closed is
//    late: its gradient is stale and is dropped, and the worker, if it
//    still awaits an answer, is resynced with a full parameter pull
//    (catch-up).
//  * A crashed worker stops gating the round; a contribution that already
//    landed is kept. While faults or a deadline are in play, a worker that
//    finished its epochs stops gating it too, and so does one at a
//    checkpoint cut (Engine::worker_parked: it pushes only after the
//    snapshot, which waits for this round), and so does a stuck worker (one
//    awaiting the answer of an older round, e.g. a dropped broadcast): none
//    of them will push to it.
//  * With rs_timeout_s > 0 a deadline timer is armed at the round's first
//    push; on expiry the round closes with the N−k contributions it has.
//    An expiry with nothing landed and nobody stuck is quiescent, not a
//    timeout.
//  * Each close resyncs every alive worker that awaits an answer but did
//    not contribute. A worker awaits until some answer reaches it, so a
//    lost pull is retried at the next close, and while anyone awaits the
//    watchdog keeps the timer armed so that close comes. Every answer
//    carries the round it answers; a duplicate, or one older than the
//    worker's last push, no-ops (settle()).
//  * A snapshot fences the armed timer: its expiry no-ops and the next push
//    arms a fresh one. A resumed run starts with no timer, so the fence is
//    what keeps it equal to the uninterrupted run, and the engine's drain
//    waits only for contributions and answers, never for a timer.
//  * With no deadline and no fault schedule the classic semantics hold:
//    the round waits for every alive worker.
//
// Aggregate (§2.1.1), computed by aggregate_round() when the owner asks
// for it from step_round (KV-core BSP takes its own uniform mean instead):
// worker gradients weighted by sample share, in worker order. A full round
// uses worker_weight(w); a partial round renormalizes over its
// contributors, worker_weight(w) / Σ weights. Whatever the owner's
// aggregate, a partial round whose contributors' weights sum to zero
// closes as a no-op.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace osp::runtime {
class Engine;
}  // namespace osp::runtime

namespace osp::util::serde {
class Writer;
class Reader;
}  // namespace osp::util::serde

namespace osp::sync {

class RoundBarrier {
 public:
  /// The sync model's half of a close.
  class Owner {
   public:
    /// Round `round` closed with `contributed` contributions. Runs before
    /// the resync, so the round's telemetry record exists for its retries.
    virtual void round_closed(std::uint64_t round,
                              std::size_t contributed) = 0;
    /// Send worker w a pull of the parameters the barrier's rounds step
    /// (all of them, or a KV shard's), answering round `round` (the last
    /// closed one); false when none could be sent.
    virtual bool catch_up(std::size_t w, std::uint64_t round) = 0;
    /// Apply round `round`, which `contributors` contributed to (the
    /// sample-share aggregate is aggregate_round()). Skipped when nothing
    /// contributed.
    virtual void step_round(std::uint64_t round,
                            const std::vector<bool>& contributors) = 0;

   protected:
    ~Owner() = default;
  };

  RoundBarrier() = default;
  /// Pinned: the deadline timer holds its address.
  RoundBarrier(const RoundBarrier&) = delete;
  RoundBarrier& operator=(const RoundBarrier&) = delete;

  /// Reset for `eng`'s workers; `rs_timeout_s` 0 disables the deadline.
  void attach(runtime::Engine& eng, double rs_timeout_s, Owner& owner);

  /// Rounds closed so far; the collecting round is rounds_closed() + 1.
  [[nodiscard]] std::uint64_t rounds_closed() const { return round_; }
  [[nodiscard]] std::uint64_t collecting() const { return round_ + 1; }
  [[nodiscard]] bool contributed(std::size_t w) const {
    return contributed_[w];
  }
  [[nodiscard]] bool awaiting(std::size_t w) const { return awaiting_[w]; }
  /// Round of w's last push (meaningful while awaiting(w)).
  [[nodiscard]] std::uint64_t awaiting_round(std::size_t w) const {
    return awaiting_round_[w];
  }
  /// The sample-share aggregate of the round that just closed; call from
  /// step_round. aggregate() keeps it until the next call.
  const std::vector<float>& aggregate_round();
  [[nodiscard]] const std::vector<float>& aggregate() const { return agg_; }

  /// Worker w pushes to `round`, the collecting one (or one already closed
  /// without w, a KV shard ahead of w's other shards, whose push lands
  /// late() and is answered by a catch-up pull): it awaits an answer,
  /// `send(round)` issues the push, and the deadline timer is armed.
  template <class Send>
  void push(std::size_t w, std::uint64_t round, Send&& send) {
    awaiting_[w] = true;
    awaiting_round_[w] = round;
    send(round);
    arm_timer();
  }
  /// A push of `round` from w landed after that round closed: true, and w
  /// is resynced if it still awaits. False for the collecting round.
  bool late(std::uint64_t round, std::size_t w);
  /// W's push of the collecting round landed; the round may close.
  void contribute(std::size_t w);
  /// W's landed push was lost with its PS host; the round waits for the
  /// re-push.
  void withdraw(std::size_t w);
  /// W crashed: its flows are gone, nothing is owed to it, and the round
  /// may close without it.
  void crashed(std::size_t w);
  /// An answer of round `round` reached w: true for the first one (w alive
  /// and awaiting, the answer not older than w's last push), which w
  /// consumes; false for a duplicate or a stale answer, e.g. a catch-up
  /// pull issued before w's push to the collecting round.
  bool settle(std::size_t w, std::uint64_t round);
  /// Whether settle(w, round) would be true, without consuming the answer:
  /// for an answer that arrives in pieces, one per shard, and settles on
  /// the last.
  [[nodiscard]] bool awaits(std::size_t w, std::uint64_t round) const;

  /// Only the round id survives a snapshot: the rest is empty whenever
  /// drained() holds, which is when the engine takes one, and the timer is
  /// fenced by it.
  void save_state(util::serde::Writer& w) const;
  void load_state(util::serde::Reader& r);
  /// No round collecting and nobody awaiting.
  [[nodiscard]] bool drained() const;

 private:
  void arm_timer();
  void maybe_close();
  void close();
  void catch_up(std::size_t w);
  /// Σ worker_weight over the last close's contributors.
  [[nodiscard]] double closed_weight() const;

  runtime::Engine* eng_ = nullptr;
  double rs_timeout_s_ = 0.0;
  Owner* owner_ = nullptr;
  bool survival_ = false;  ///< faults or a deadline in play (see attach)
  std::uint64_t round_ = 0;
  std::vector<bool> contributed_;  ///< push landed this round
  std::size_t contributed_count_ = 0;
  std::vector<bool> closed_;       ///< contributors of the last close
  std::vector<bool> awaiting_;     ///< pushed, no answer delivered yet
  std::vector<std::uint64_t> awaiting_round_;  ///< round of that push
  bool timer_armed_ = false;
  std::uint64_t timer_snapshot_ = 0;  ///< checkpoints taken at arming
  std::vector<float> agg_;
};

}  // namespace osp::sync
