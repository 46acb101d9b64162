#include "sync/r2sp.hpp"

#include <algorithm>

#include "runtime/engine.hpp"
#include "util/serde.hpp"
#include "util/vec_math.hpp"

namespace osp::sync {

void R2spSync::attach(runtime::Engine& eng) {
  SyncModel::attach(eng);
  ready_.assign(eng.num_workers(), false);
  token_ = 0;
  serving_ = false;
  tel_rounds_ = 0;
}

void R2spSync::on_gradient_ready(std::size_t worker) {
  ready_.at(worker) = true;
  try_serve();
}

void R2spSync::try_serve() {
  if (serving_) return;
  // A worker that finished its epochs never pushes again, and one at a
  // checkpoint cut pushes only after the snapshot: pass its turn on. Only
  // a restarted worker, which redid a batch, can still be behind.
  runtime::Engine& e = eng();
  for (std::size_t i = 0; i < ready_.size(); ++i) {
    if (!e.worker_done(token_) && !e.worker_parked(token_)) break;
    token_ = (token_ + 1) % ready_.size();
  }
  if (!ready_[token_]) return;
  serving_ = true;
  ready_[token_] = false;
  const std::size_t w = token_;
  const std::uint64_t slot = ++slot_;
  e.worker_transfer(w, e.cluster().route_to_ps(w), e.model_bytes(),
                    [this, w, slot] {
    runtime::Engine& en = eng();
    en.apply_global_step(en.worker_gradient(w), en.worker_weight(w));
    record_full_round(++tel_rounds_, 1);
    en.ps_submit(en.ps_apply_delay(en.model_bytes(), 3.0), [this, w, slot] {
      if (slot != slot_) return;  // the worker crashed; its slot was freed
      runtime::Engine& e2 = eng();
      if (overlap_pull_) {
        // Idealized duplex pipeline: the next push may start while this
        // worker's pull rides the egress direction.
        serving_ = false;
        token_ = (token_ + 1) % e2.num_workers();
        deliver(w);
        try_serve();
      } else {
        deliver(w);
      }
    });
  });
}

void R2spSync::on_worker_crashed(std::size_t worker) {
  // The crash cancelled the worker's owned push or pull, and it redoes the
  // batch after its restart. A push still waiting for its turn is gone; a
  // slot in service is freed, voiding a PS update still queued for it, so
  // the redone push is served in its place.
  ready_[worker] = false;
  if (!serving_ || token_ != worker) return;
  serving_ = false;
  ++slot_;
}

void R2spSync::save_state(util::serde::Writer& w) const {
  w.u8(1);  // R2SP state version
  w.bool_vec(ready_);
  w.u64(token_);
  w.boolean(serving_);
}

void R2spSync::load_state(util::serde::Reader& r) {
  const std::uint8_t version = r.u8();
  OSP_CHECK(version == 1, "unsupported R2SP state version");
  ready_ = r.bool_vec();
  OSP_CHECK(ready_.size() == eng().num_workers(),
            "R2SP checkpoint worker count mismatch");
  token_ = static_cast<std::size_t>(r.u64());
  serving_ = r.boolean();
}

bool R2spSync::drained() const {
  return !serving_ && std::none_of(ready_.begin(), ready_.end(),
                                   [](bool b) { return b; });
}

void R2spSync::deliver(std::size_t worker) {
  runtime::Engine& e = eng();
  e.worker_transfer(worker, e.cluster().route_from_ps(worker),
                    e.model_bytes(), [this, worker] {
                      runtime::Engine& en = eng();
                      util::copy(en.global_params(),
                                 en.worker_params(worker));
                      en.finish_sync(worker);
                      if (!overlap_pull_) {
                        serving_ = false;
                        token_ = (token_ + 1) % en.num_workers();
                        try_serve();
                      }
                    });
}

}  // namespace osp::sync
