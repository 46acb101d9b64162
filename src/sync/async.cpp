#include "sync/async.hpp"

#include <algorithm>

#include "runtime/engine.hpp"
#include "util/check.hpp"
#include "util/serde.hpp"
#include "util/vec_math.hpp"

namespace osp::sync {

Staleness asp() { return {}; }

Staleness ssp(std::size_t s) { return {.lo = s, .hi = s}; }

Staleness dssp(std::size_t lo, std::size_t hi) {
  return {.lo = lo, .hi = hi, .adaptive = true};
}

AsyncSync::AsyncSync(Staleness staleness)
    : staleness_(staleness), bound_(staleness.hi) {
  OSP_CHECK(staleness.lo <= staleness.hi, "min bound must not exceed max");
}

std::string AsyncSync::name() const {
  if (staleness_.adaptive) {
    return "DSSP(" + std::to_string(staleness_.lo) + ".." +
           std::to_string(staleness_.hi) + ")";
  }
  if (staleness_.hi == Staleness::kUnbounded) return "ASP";
  return "SSP(s=" + std::to_string(staleness_.hi) + ")";
}

void AsyncSync::attach(runtime::Engine& eng) {
  SyncModel::attach(eng);
  bound_ = staleness_.hi;
  max_spread_seen_ = 0;
  parked_.clear();
  tel_rounds_ = 0;
}

void AsyncSync::on_gradient_ready(std::size_t worker) {
  runtime::Engine& e = eng();
  e.worker_transfer(
      worker, e.cluster().route_to_ps(worker), e.model_bytes(),
      [this, worker] {
        runtime::Engine& en = eng();
        // The PS applies this worker's gradient alone, immediately; each
        // apply is its own telemetry round.
        en.apply_global_step(en.worker_gradient(worker),
                             en.worker_weight(worker));
        record_full_round(++tel_rounds_, 1);
        // Each update costs a full read-gradient/write-params pass
        // through the single-threaded PS loop.
        en.ps_submit(en.ps_apply_delay(en.model_bytes(), 3.0),
                     [this, worker] {
          runtime::Engine& e2 = eng();
          e2.worker_transfer(worker, e2.cluster().route_from_ps(worker),
                             e2.model_bytes(), [this, worker] {
                               runtime::Engine& e3 = eng();
                               util::copy(e3.global_params(),
                                          e3.worker_params(worker));
                               maybe_release(worker);
                             });
        });
      });
}

void AsyncSync::maybe_release(std::size_t worker) {
  runtime::Engine& e = eng();
  // finish_sync bumps this worker's iteration to it+1; the bound limits how
  // far that may run ahead of the slowest alive worker (which is at most
  // this one, so the subtraction cannot wrap).
  const std::size_t spread =
      e.worker_iteration(worker) + 1 - e.min_worker_iteration();
  max_spread_seen_ = std::max(max_spread_seen_, spread);
  if (spread > bound_) {
    parked_.push_back(worker);
    return;
  }
  e.finish_sync(worker);
  // This worker's progress may have raised the minimum; wake others.
  release_parked();
}

void AsyncSync::release_parked() {
  runtime::Engine& e = eng();
  bool progressed = true;
  while (progressed && !parked_.empty()) {
    progressed = false;
    const std::size_t min_it = e.min_worker_iteration();
    for (std::size_t i = 0; i < parked_.size(); ++i) {
      const std::size_t w = parked_[i];
      if (e.worker_iteration(w) + 1 - min_it <= bound_) {
        parked_.erase(parked_.begin() + static_cast<std::ptrdiff_t>(i));
        e.finish_sync(w);
        progressed = true;
        break;
      }
    }
  }
}

void AsyncSync::on_epoch_complete(std::size_t /*epoch*/,
                                  double /*mean_loss*/) {
  if (staleness_.adaptive) {
    // Adapt: if the workers hit the current bound this epoch, tighten to
    // protect accuracy; otherwise relax toward the max for throughput.
    if (max_spread_seen_ >= bound_) {
      bound_ = std::max(staleness_.lo, bound_ > 0 ? bound_ - 1 : 0);
    } else {
      bound_ = std::min(staleness_.hi, bound_ + 1);
    }
    max_spread_seen_ = 0;
  }
  // The bound may have widened, and the epoch's last finisher may have
  // raised the minimum.
  release_parked();
}

void AsyncSync::on_worker_crashed(std::size_t worker) {
  // A parked worker that crashed must not be released after its restart
  // (it is computing again by then), and the alive minimum may have risen.
  std::erase(parked_, worker);
  release_parked();
}

void AsyncSync::save_state(util::serde::Writer& w) const {
  w.u8(1);  // async state version
  w.u64(bound_);
  w.u64(max_spread_seen_);
  w.size_vec(parked_);
}

void AsyncSync::load_state(util::serde::Reader& r) {
  const std::uint8_t version = r.u8();
  OSP_CHECK(version == 1, "unsupported async state version");
  bound_ = static_cast<std::size_t>(r.u64());
  max_spread_seen_ = static_cast<std::size_t>(r.u64());
  parked_ = r.size_vec();
}

}  // namespace osp::sync
