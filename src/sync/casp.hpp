// CASP / Petrel-style cluster-aware hybrid synchronization (Zhou et al.,
// TPDS'20; §7).
//
// Workers are clustered by compute speed: members of the same speed group
// synchronize with BSP semantics (barrier + mean aggregation within the
// group), while the groups relate to each other asynchronously (each group
// pushes its aggregated gradient ASP-style). Fast groups never wait for
// slow ones, but within a group no stale values circulate.
//
// Grouping here is by the cluster's speed_factors (k-means would be
// overkill for the evaluation's two-speed scenarios): workers with equal
// speed factors share a group.
//
// A group's barrier waits only for members that can still push. A crashed
// member's landed push is withdrawn (it redoes the batch after a restart)
// and the group closes without it; a member that finished its epochs is
// not waited for either, so one a restart left a batch behind can finish,
// and nor is one at a checkpoint cut, so such a member reaches the cut
// too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/sync_model.hpp"

namespace osp::sync {

class CaspSync : public runtime::SyncModel {
 public:
  CaspSync() = default;

  [[nodiscard]] std::string name() const override;
  void attach(runtime::Engine& eng) override;
  void on_gradient_ready(std::size_t worker) override;
  void on_worker_crashed(std::size_t worker) override;

  [[nodiscard]] std::size_t num_groups() const { return groups_.size(); }

  void save_state(util::serde::Writer& w) const override;
  void load_state(util::serde::Reader& r) override;
  [[nodiscard]] bool drained() const override;

 private:
  void maybe_aggregate(std::size_t group);

  std::vector<std::vector<std::size_t>> groups_;  // group -> workers
  std::vector<std::size_t> group_of_;             // worker -> group
  std::vector<bool> pushed_;  // per worker: push landed this group round
  // Per worker: crashes so far. A queued PS apply answers only the
  // contributors that have not crashed since it aggregated them; one that
  // restarted in between pulls the model in its new life.
  std::vector<std::uint64_t> crashes_;
  std::vector<float> agg_;
  std::uint64_t tel_rounds_ = 0;  // group barriers closed (telemetry)
};

}  // namespace osp::sync
