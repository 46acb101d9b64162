// Sync-Switch (Li et al., ICDCS'21 — §2.2.1).
//
// Trains with BSP during the early epochs (when ASP's stale values can trap
// the model in poor regions) and switches to ASP afterwards for throughput.
// The switch point is a fixed epoch fraction here (the paper the OSP
// authors cite notes that *finding* the switch point is the scheme's
// practical difficulty).
#pragma once

#include "runtime/sync_model.hpp"
#include "sync/async.hpp"
#include "sync/bsp.hpp"

namespace osp::sync {

class SyncSwitchSync : public runtime::SyncModel {
 public:
  /// Switch from BSP to ASP once `switch_fraction` of max_epochs complete.
  explicit SyncSwitchSync(double switch_fraction = 0.3);

  [[nodiscard]] std::string name() const override;
  void attach(runtime::Engine& eng) override;
  void on_gradient_ready(std::size_t worker) override;
  void on_epoch_complete(std::size_t epoch, double mean_loss) override;

  [[nodiscard]] bool switched() const { return switched_; }

  void save_state(util::serde::Writer& w) const override;
  void load_state(util::serde::Reader& r) override;
  [[nodiscard]] bool drained() const override { return bsp_.drained(); }

 private:
  double switch_fraction_;
  std::size_t switch_epoch_ = 0;
  bool switched_ = false;
  BspSync bsp_;
  AsyncSync asp_;
};

}  // namespace osp::sync
