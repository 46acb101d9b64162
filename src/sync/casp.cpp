#include "sync/casp.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "runtime/engine.hpp"
#include "util/check.hpp"
#include "util/serde.hpp"
#include "util/vec_math.hpp"

namespace osp::sync {

std::string CaspSync::name() const {
  return "CASP(g=" + std::to_string(groups_.size()) + ")";
}

void CaspSync::attach(runtime::Engine& eng) {
  SyncModel::attach(eng);
  groups_.clear();
  group_of_.assign(eng.num_workers(), 0);
  // Group by identical speed factor (deterministic order by speed).
  std::map<double, std::vector<std::size_t>> by_speed;
  for (std::size_t w = 0; w < eng.num_workers(); ++w) {
    by_speed[eng.cluster().speed_factor(w)].push_back(w);
  }
  for (auto& [speed, members] : by_speed) {
    (void)speed;
    for (std::size_t w : members) group_of_[w] = groups_.size();
    groups_.push_back(std::move(members));
  }
  pushed_.assign(eng.num_workers(), false);
  crashes_.assign(eng.num_workers(), 0);
  agg_.assign(eng.global_params().size(), 0.0f);
  tel_rounds_ = 0;
}

void CaspSync::on_gradient_ready(std::size_t worker) {
  runtime::Engine& e = eng();
  e.worker_transfer(worker, e.cluster().route_to_ps(worker), e.model_bytes(),
                    [this, worker] {
                      pushed_[worker] = true;
                      maybe_aggregate(group_of_[worker]);
                    });
}

void CaspSync::on_worker_crashed(std::size_t worker) {
  // The worker redoes its batch after a restart, so a push it already
  // landed is withdrawn, and its group stops waiting for it.
  ++crashes_[worker];
  pushed_[worker] = false;
  maybe_aggregate(group_of_[worker]);
}

void CaspSync::maybe_aggregate(std::size_t group) {
  runtime::Engine& e = eng();
  // Each contributor with its crash count at aggregation.
  std::vector<std::pair<std::size_t, std::uint64_t>> contributors;
  for (std::size_t w : groups_[group]) {
    if (pushed_[w]) {
      contributors.emplace_back(w, crashes_[w]);
    } else if (e.worker_alive(w) && !e.worker_done(w) &&
               !e.worker_parked(w)) {
      return;  // a member that will push to this round
    }
  }
  if (contributors.empty()) return;
  for (const auto& [w, crashes] : contributors) pushed_[w] = false;
  // Mean over the contributors' gradients, applied ASP-style with their
  // share of the cluster so per-sample step sizes stay calibrated. Only a
  // crashed member or one a restart left an iteration behind makes the
  // contributors fewer than the group.
  agg_.assign(e.global_params().size(), 0.0f);
  const float scale = 1.0f / static_cast<float>(contributors.size());
  for (const auto& [w, crashes] : contributors) {
    util::axpy(scale, e.worker_gradient(w), agg_);
  }
  e.apply_global_step(agg_, static_cast<double>(contributors.size()) /
                                static_cast<double>(e.num_workers()));
  record_full_round(++tel_rounds_, contributors.size());
  e.ps_submit(e.ps_apply_delay(e.model_bytes(), 3.0), [this, contributors] {
    runtime::Engine& en = eng();
    for (const auto& [w, crashes] : contributors) {
      if (crashes_[w] != crashes) continue;  // crashed while queued
      en.worker_transfer(w, en.cluster().route_from_ps(w), en.model_bytes(),
                         [this, w] {
                           runtime::Engine& e2 = eng();
                           util::copy(e2.global_params(),
                                      e2.worker_params(w));
                           e2.finish_sync(w);
                           // A partner may have pushed the next round
                           // while this answer was in flight, and w may
                           // have stopped pushing (done, or at the cut).
                           maybe_aggregate(group_of_[w]);
                         });
    }
  });
}

void CaspSync::save_state(util::serde::Writer& w) const {
  w.u8(2);  // CASP state version
  w.u64(groups_.size());
  w.bool_vec(pushed_);
}

void CaspSync::load_state(util::serde::Reader& r) {
  const std::uint8_t version = r.u8();
  OSP_CHECK(version == 2, "unsupported CASP state version");
  OSP_CHECK(r.u64() == groups_.size(),
            "CASP checkpoint group count mismatch");
  pushed_ = r.bool_vec();
  OSP_CHECK(pushed_.size() == eng().num_workers(),
            "CASP checkpoint worker count mismatch");
}

bool CaspSync::drained() const {
  return std::none_of(pushed_.begin(), pushed_.end(),
                      [](bool b) { return b; });
}

}  // namespace osp::sync
