#include "sim/simulator.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "sim/network.hpp"
#include "util/check.hpp"

namespace osp::sim {

void Simulator::schedule(SimTime delay, EventFn fn) {
  OSP_CHECK(delay >= 0.0, "cannot schedule into the past");
  schedule_at(now_ + delay, std::move(fn));
}

void Simulator::schedule_at(SimTime when, EventFn fn) {
  schedule_reserved(when, reserve_seq(), std::move(fn));
}

void Simulator::schedule_reserved(SimTime when, std::uint64_t seq,
                                  EventFn fn) {
  OSP_CHECK(seq < next_seq_, "sequence number was never reserved");
  OSP_CHECK(when >= now_, "cannot schedule into the past");
  OSP_CHECK(std::isfinite(when), "event time must be finite");
  OSP_CHECK(static_cast<bool>(fn), "null event");
  heap_.push_back(Event{when, seq, std::move(fn)});
  sift_up(heap_.size() - 1);
}

void Simulator::attach(Network& net) {
  OSP_CHECK(net_ == nullptr, "a Simulator drives at most one Network");
  net_ = &net;
}

void Simulator::settle() {
  if (net_ != nullptr) net_->settle();
}

std::size_t Simulator::pending() const {
  return heap_.size() + (net_ != nullptr && net_->solve_pending() ? 1 : 0);
}

void Simulator::sift_up(std::size_t i) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!earlier(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void Simulator::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t left = 2 * i + 1;
    if (left >= n) break;
    const std::size_t right = left + 1;
    std::size_t best = left;
    if (right < n && earlier(heap_[right], heap_[left])) best = right;
    if (!earlier(heap_[best], heap_[i])) break;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
}

Simulator::Event Simulator::pop_min() {
  Event ev = std::move(heap_.front());
  heap_.front() = std::move(heap_.back());
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  return ev;
}

std::size_t Simulator::run() {
  // Event times are finite, so an infinite deadline drains the queue.
  return run_until(std::numeric_limits<SimTime>::infinity());
}

std::size_t Simulator::run_until(SimTime deadline) {
  OSP_CHECK(deadline >= now_, "deadline in the past");
  settle();
  std::size_t count = 0;
  while (!heap_.empty() && heap_.front().time <= deadline) {
    // Move out, pop, then fire: the handler may schedule new events.
    Event ev = pop_min();
    now_ = ev.time;
    ev.fn();
    settle();
    ++count;
    ++processed_;
  }
  // Only jump to the deadline when it actually cut the run short; a
  // drained queue means the simulation ended at its last event.
  if (!heap_.empty()) now_ = deadline;
  return count;
}

void Simulator::clear() {
  settle();
  // Time may pass once the queue is gone: no rate may wait for a
  // zero-time completion that is about to be dropped.
  if (net_ != nullptr) net_->solve_deferred_rates();
  heap_.clear();
}

}  // namespace osp::sim
