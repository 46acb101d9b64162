// Discrete-event simulation core.
//
// Virtual time is a double in seconds. Events scheduled at equal times fire
// in schedule order (a monotonically increasing sequence number breaks
// ties), which keeps every run fully deterministic.
//
// The event queue is a hand-rolled binary heap over a vector rather than
// std::priority_queue: priority_queue only exposes a const top(), which
// forces a copy of the callback out of the queue on every pop. With a
// move-only small-buffer callback (util::SmallFunction) the hot loop moves
// events out of the heap and never touches the allocator for captures up
// to the inline buffer size. The (time, seq) comparator is a strict total
// order, so the pop sequence — and therefore determinism — is independent
// of the heap's internal layout.
//
// One Network may attach; its deferred rate solve settles after each event
// and at the start of run()/run_until(), and its completion takes the
// sequence number the last topology change reserved.
#pragma once

#include <cstdint>
#include <vector>

#include "util/small_function.hpp"

namespace osp::sim {

class Network;

using SimTime = double;

/// Event callback: 32 inline bytes covers every capture the simulator's
/// clients create on the hot path (network completions capture 24 bytes;
/// a moved-in std::function is exactly 32), and keeps the whole Event
/// record — time, seq, callback — at one 64-byte cache line so heap
/// sifts stay cheap. Larger captures spill to the heap.
using EventFn = util::SmallFunction<void(), 32>;

class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `fn` to run `delay` seconds from now (delay >= 0).
  void schedule(SimTime delay, EventFn fn);

  /// Schedule `fn` at absolute time `when` (finite and >= now()).
  void schedule_at(SimTime when, EventFn fn);

  /// reserve_seq() takes the sequence number an event scheduled now would
  /// get; schedule_reserved() later puts an event in that place.
  std::uint64_t reserve_seq() { return next_seq_++; }
  void schedule_reserved(SimTime when, std::uint64_t seq, EventFn fn);

  /// Called by Network's constructor/destructor: one Network per Simulator.
  void attach(Network& net);
  void detach(const Network& net) { if (net_ == &net) net_ = nullptr; }

  /// Run until the event queue drains. Returns events processed.
  std::size_t run();

  /// Run until the queue drains or virtual time would exceed `deadline`.
  /// Events after the deadline remain queued; now() is clamped to deadline.
  std::size_t run_until(SimTime deadline);

  /// Drop all pending events, a pending solve's completion included (used
  /// between experiment repetitions). The rates are solved first.
  void clear();

  /// Queued events, plus one for a pending rate solve.
  [[nodiscard]] bool empty() const { return pending() == 0; }
  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    EventFn fn;
  };

  /// True when `a` must fire before `b`.
  static bool earlier(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  void settle();  ///< the attached Network's pending solve, if any
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  /// Remove and return the earliest event.
  Event pop_min();

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::vector<Event> heap_;  ///< min-heap ordered by earlier()
  Network* net_ = nullptr;
};

}  // namespace osp::sim
