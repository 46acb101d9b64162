#include "sim/faults.hpp"

#include <cmath>

#include "util/check.hpp"

namespace osp::sim {

namespace {
void check_time(double at) {
  OSP_CHECK(at >= 0.0 && std::isfinite(at),
            "fault time must be finite and non-negative");
}

void check_window(double at, double duration) {
  check_time(at);
  OSP_CHECK(duration > 0.0 && std::isfinite(duration),
            "fault window needs a finite positive duration");
}

void check_crash(double at, double restart_after) {
  check_time(at);
  OSP_CHECK(restart_after < 0.0 || std::isfinite(restart_after),
            "restart delay must be finite, or negative for never (not NaN)");
}
}  // namespace

FaultSchedule& FaultSchedule::pause_worker(double at, std::size_t worker,
                                           double duration) {
  check_window(at, duration);
  events_.push_back({.kind = FaultKind::kWorkerPause, .time = at,
                     .duration = duration, .target = worker});
  return *this;
}

FaultSchedule& FaultSchedule::crash_worker(double at, std::size_t worker,
                                           double restart_after) {
  check_crash(at, restart_after);
  events_.push_back({.kind = FaultKind::kWorkerCrash, .time = at,
                     .duration = restart_after, .target = worker});
  return *this;
}

FaultSchedule& FaultSchedule::crash_ps(double at, std::size_t ps,
                                       double restart_after) {
  check_crash(at, restart_after);
  events_.push_back({.kind = FaultKind::kPsCrash, .time = at,
                     .duration = restart_after, .target = ps});
  return *this;
}

FaultSchedule& FaultSchedule::link_down(double at, LinkId link,
                                        double duration) {
  check_window(at, duration);
  events_.push_back({.kind = FaultKind::kLinkDown, .time = at,
                     .duration = duration, .target = link});
  return *this;
}

FaultSchedule& FaultSchedule::degrade_link(double at, LinkId link,
                                           double duration,
                                           double bandwidth_factor,
                                           double extra_loss_rate) {
  check_window(at, duration);
  OSP_CHECK(bandwidth_factor > 0.0 && bandwidth_factor <= 1.0,
            "bandwidth factor must be in (0, 1]");
  OSP_CHECK(extra_loss_rate >= 0.0, "extra loss rate must be non-negative");
  events_.push_back({.kind = FaultKind::kLinkDegrade, .time = at,
                     .duration = duration, .target = link,
                     .bandwidth_factor = bandwidth_factor,
                     .extra_loss_rate = extra_loss_rate});
  return *this;
}

FaultSchedule& FaultSchedule::delay_messages(double at, double duration,
                                             double delay_s,
                                             std::size_t link) {
  check_window(at, duration);
  OSP_CHECK(delay_s >= 0.0 && std::isfinite(delay_s),
            "message delay must be finite and non-negative");
  events_.push_back({.kind = FaultKind::kMessageDelay, .time = at,
                     .duration = duration, .target = link,
                     .delay_s = delay_s});
  return *this;
}

FaultSchedule& FaultSchedule::drop_messages(double at, double duration,
                                            double drop_prob,
                                            std::size_t link) {
  check_window(at, duration);
  OSP_CHECK(drop_prob >= 0.0 && drop_prob <= 1.0,
            "drop probability must be in [0, 1]");
  events_.push_back({.kind = FaultKind::kMessageDrop, .time = at,
                     .duration = duration, .target = link,
                     .drop_prob = drop_prob});
  return *this;
}

FaultSchedule& FaultSchedule::set_seed(std::uint64_t seed) {
  seed_ = seed;
  return *this;
}

bool FaultStats::any() const {
  return worker_crashes > 0 || worker_restarts > 0 || worker_pauses > 0 ||
         link_down_events > 0 || link_degrade_events > 0 ||
         flows_cancelled > 0 || messages_dropped > 0 ||
         messages_delayed > 0 || timed_out_rounds > 0 ||
         ics_rounds_abandoned > 0 || catch_up_pulls > 0 ||
         ps_crashes > 0 || ps_restarts > 0 || ps_promotions > 0 ||
         replica_catchup_bytes > 0.0 || worker_downtime_s > 0.0;
}

}  // namespace osp::sim
