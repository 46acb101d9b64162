// Round-Robin Synchronous Parallel (R²SP, Chen et al. INFOCOM'19, §2.2.1).
//
// Workers synchronize with the PS one at a time in a fixed cyclic order, so
// the PS ingress link is never shared (no incast), and worker k's parameter
// pull overlaps worker k+1's gradient push — the full-duplex utilization
// R²SP is built around (default). `overlap_pull = false` gives the serial
// service discipline (push, update, pull per slot) as an ablation.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/sync_model.hpp"

namespace osp::sync {

class R2spSync : public runtime::SyncModel {
 public:
  explicit R2spSync(bool overlap_pull = true)
      : overlap_pull_(overlap_pull) {}

  [[nodiscard]] std::string name() const override {
    return overlap_pull_ ? "R2SP" : "R2SP(serial)";
  }
  void attach(runtime::Engine& eng) override;
  void on_gradient_ready(std::size_t worker) override;
  void on_worker_crashed(std::size_t worker) override;
  void save_state(util::serde::Writer& w) const override;
  void load_state(util::serde::Reader& r) override;
  [[nodiscard]] bool drained() const override;

 private:
  void try_serve();
  void deliver(std::size_t worker);

  bool overlap_pull_;
  std::vector<bool> ready_;
  std::size_t token_ = 0;   // whose turn it is
  bool serving_ = false;    // the PS is busy with a worker's slot
  std::uint64_t slot_ = 0;  // slots started; a crash voids the current one
  std::uint64_t tel_rounds_ = 0;  // served slots (telemetry)
};

}  // namespace osp::sync
