// Asynchronous PS training under a staleness bound: ASP and SSP (§2.1.2)
// and DSSP (Zhao et al., ICDCS'19; §7) as one model.
//
// Each worker synchronizes with the PS on its own: it pushes its
// gradient, the PS applies that gradient alone and at once (no
// aggregation, no barrier), and once the PS queue has spent the update's
// cost the worker pulls the current global parameters. Workers therefore
// train on whatever (possibly stale) parameters the PS holds. The three
// schemes differ only in when a worker whose pull has landed may start
// iteration it+1 — PSP's framing of one barrier function over the
// workers, here the alive ones:
//
//   profile      | release while it+1 − min_alive ≤ | bound adapts
//   -------------+----------------------------------+----------------
//   asp()        | always                           | —
//   ssp(s)       | s                                | —
//   dssp(lo, hi) | bound ∈ [lo, hi], starting at hi | once per epoch
//
// A worker over the bound parks. Parked workers are re-checked whenever
// another worker is released, at each epoch end and after a crash. DSSP
// adapts at the epoch end: it tightens the bound by one after an epoch
// whose iteration spread reached it (accuracy) and relaxes it by one
// otherwise (throughput).
//
// Every push and pull is worker-owned (Engine::worker_transfer): a crash
// cancels them, the crashed worker leaves the parked list, and the others
// stop waiting for it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "runtime/sync_model.hpp"

namespace osp::sync {

/// The release rule: a staleness range and whether the bound adapts
/// within it.
struct Staleness {
  static constexpr std::size_t kUnbounded =
      std::numeric_limits<std::size_t>::max();
  std::size_t lo = kUnbounded;
  std::size_t hi = kUnbounded;
  bool adaptive = false;
};

/// Asynchronous parallel, never gated: "ASP".
[[nodiscard]] Staleness asp();
/// Stale synchronous parallel with bound `s`: "SSP(s=2)".
[[nodiscard]] Staleness ssp(std::size_t s);
/// Dynamic SSP, bound adapted within [lo, hi]: "DSSP(1..3)".
[[nodiscard]] Staleness dssp(std::size_t lo, std::size_t hi);

class AsyncSync : public runtime::SyncModel {
 public:
  explicit AsyncSync(Staleness staleness = asp());

  [[nodiscard]] std::string name() const override;
  void attach(runtime::Engine& eng) override;
  void on_gradient_ready(std::size_t worker) override;
  void on_epoch_complete(std::size_t epoch, double mean_loss) override;
  void on_worker_crashed(std::size_t worker) override;
  void save_state(util::serde::Writer& w) const override;
  void load_state(util::serde::Reader& r) override;
  [[nodiscard]] bool drained() const override { return parked_.empty(); }

  /// The staleness bound in force (Staleness::kUnbounded under ASP).
  [[nodiscard]] std::size_t current_bound() const { return bound_; }
  /// Workers held over the bound, in the order they parked.
  [[nodiscard]] const std::vector<std::size_t>& parked() const {
    return parked_;
  }

  /// Telemetry round numbering continues from `base` (SyncSwitch hands the
  /// BSP phase's round count over so the shared record stream stays
  /// collision-free).
  void seed_round_counter(std::uint64_t base) { tel_rounds_ = base; }

 private:
  void maybe_release(std::size_t worker);
  void release_parked();

  Staleness staleness_;
  std::size_t bound_;
  std::size_t max_spread_seen_ = 0;
  std::vector<std::size_t> parked_;
  std::uint64_t tel_rounds_ = 0;  ///< per-worker exchanges applied
};

}  // namespace osp::sync
