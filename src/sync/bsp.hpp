// Bulk Synchronous Parallel (§2.1.2).
//
// Every iteration: all workers push their full gradient to the PS
// (simultaneously — the incast), the PS averages them and takes one
// optimizer step, then broadcasts the updated parameters back; workers
// resume only after receiving them (global barrier).
//
// The barrier, its deadline and its catch-up resync are the RoundBarrier
// (sync/round_barrier.hpp), which states the survival contract.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/sync_model.hpp"
#include "sync/round_barrier.hpp"

namespace osp::sync {

class BspSync : public runtime::SyncModel, private RoundBarrier::Owner {
 public:
  BspSync() = default;
  explicit BspSync(runtime::SyncTimeouts timeouts) { set_timeouts(timeouts); }

  [[nodiscard]] std::string name() const override { return "BSP"; }
  void attach(runtime::Engine& eng) override;
  void on_gradient_ready(std::size_t worker) override;
  void on_worker_crashed(std::size_t worker) override {
    barrier_.crashed(worker);
  }
  void save_state(util::serde::Writer& w) const override;
  void load_state(util::serde::Reader& r) override;
  [[nodiscard]] bool drained() const override { return barrier_.drained(); }

  /// Barrier rounds closed so far (SyncSwitch seeds ASP's telemetry round
  /// numbering from this at the switch point).
  [[nodiscard]] std::uint64_t rounds_closed() const {
    return barrier_.rounds_closed();
  }

 private:
  void round_closed(std::uint64_t round, std::size_t contributed) override {
    record_full_round(round, contributed);
  }
  bool catch_up(std::size_t worker, std::uint64_t round) override;
  /// Step the global model and broadcast it to the round's contributors.
  void step_round(std::uint64_t round,
                  const std::vector<bool>& contributors) override;
  /// A broadcast or catch-up pull answering `round` reached `worker`.
  void resume(std::size_t worker, std::uint64_t round);

  RoundBarrier barrier_;
};

}  // namespace osp::sync
