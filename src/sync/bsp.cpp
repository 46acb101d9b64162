#include "sync/bsp.hpp"

#include "runtime/engine.hpp"
#include "util/check.hpp"
#include "util/serde.hpp"
#include "util/vec_math.hpp"

namespace osp::sync {

void BspSync::attach(runtime::Engine& eng) {
  SyncModel::attach(eng);
  barrier_.attach(eng, timeouts().rs_timeout_s, *this);
}

void BspSync::on_gradient_ready(std::size_t worker) {
  runtime::Engine& e = eng();
  barrier_.push(worker, barrier_.collecting(), [&](std::uint64_t r) {
    e.worker_transfer(worker, e.cluster().route_to_ps(worker), e.model_bytes(),
                      [this, r, worker] {
                        if (barrier_.late(r, worker)) return;
                        barrier_.contribute(worker);
                      });
  });
}

void BspSync::step_round(std::uint64_t round,
                         const std::vector<bool>& contributors) {
  runtime::Engine& e = eng();
  e.apply_global_step(barrier_.aggregate_round());
  // PS cost: the final optimizer application (read aggregate, read+write
  // params = 3 memory passes); per-push accumulation streams with the
  // incast arrivals and stays off the critical path.
  const double apply_s = e.ps_apply_delay(e.model_bytes(), 3.0);
  e.ps_submit(apply_s, [this, round, contributors] {
    runtime::Engine& en = eng();
    for (std::size_t w = 0; w < en.num_workers(); ++w) {
      if (!contributors[w] || !en.worker_alive(w)) continue;
      en.worker_transfer(w, en.cluster().route_from_ps(w), en.model_bytes(),
                         [this, w, round] { resume(w, round); });
    }
  });
}

bool BspSync::catch_up(std::size_t worker, std::uint64_t round) {
  runtime::Engine& e = eng();
  e.worker_transfer(worker, e.cluster().route_from_ps(worker), e.model_bytes(),
                    [this, worker, round] { resume(worker, round); });
  return true;
}

void BspSync::resume(std::size_t worker, std::uint64_t round) {
  if (!barrier_.settle(worker, round)) return;
  runtime::Engine& e = eng();
  util::copy(e.global_params(), e.worker_params(worker));
  e.finish_sync(worker);
}

void BspSync::save_state(util::serde::Writer& w) const {
  w.u8(2);  // BSP state version (2: the round barrier's state)
  barrier_.save_state(w);
}

void BspSync::load_state(util::serde::Reader& r) {
  const std::uint8_t version = r.u8();
  OSP_CHECK(version == 2, "unsupported BSP state version");
  barrier_.load_state(r);
}

}  // namespace osp::sync
