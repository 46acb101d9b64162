// Overlapped Synchronization Parallel — the paper's contribution (§3–§4).
//
// Per iteration:
//   1. RS (Routine Synchronization): every worker pushes the *important*
//      gradient blocks (selected by the GIB the PS computed last round).
//      When all N pushes arrive the PS (a) averages the full gradients,
//      (b) steps the important blocks of the global model, (c) computes the
//      next GIB from PGP on the fresh aggregate (asynchronous GIB
//      calculation — zero worker-side cost), and (d) answers each worker
//      with the updated important blocks + the new GIB.
//   2. On the RS response a worker overwrites its important blocks, applies
//      LGP's local prediction to the unimportant blocks (Eq. 6), and starts
//      the next iteration immediately.
//   3. ICS (In-Computation Synchronization): while the workers compute,
//      the unimportant gradients travel to the PS; when all arrive the PS
//      steps the unimportant blocks and sends the corrected values back;
//      the worker replaces its LGP prediction with the global result
//      (Eq. 7).
//
// The ICS byte budget follows Algorithm 1 (ramp from 0 to U_max as the loss
// falls), so early training behaves like BSP (budget 0 ⇒ GIB all-important,
// §4.3's degradation) and later training overlaps up to 80 % of the model.
//
// Multi-PS (§6.1): when the cluster has P > 1 parameter servers, layer
// blocks are byte-balanced across them; each RS/ICS exchange becomes P
// parallel per-shard flows, each PS aggregates and steps only its own
// blocks on its own serial update queue, and Eq. 5's bound scales with the
// P-fold aggregate ingress capacity.
//
// Survival contract (fault injection): the RS stage runs on
// sync::RoundBarrier, whose header (sync/round_barrier.hpp) states it.
// While any worker is unhealthy the next GIB degrades to all-important
// (§4.3: RS-only, ICS budget effectively 0); Algorithm 1's budget resumes
// once the cluster heals. ICS rounds track their member set — a member's
// crash removes it from every in-flight round — and an ics_timeout_s
// abandons rounds whose remaining pushes never arrive.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/gib.hpp"
#include "core/lgp.hpp"
#include "core/tuning.hpp"
#include "kv/message.hpp"
#include "kv/partition.hpp"
#include "kv/shard_session.hpp"
#include "runtime/sync_model.hpp"
#include "sync/round_barrier.hpp"
#include "util/rng.hpp"

namespace osp::core {

struct OspOptions {
  /// Apply LGP's Eq. 6 local prediction (off = train on stale values until
  /// the ICS lands — the ablation case).
  bool enable_lgp = true;
  /// Use the EMA-LGP variant instead of plain LGP (§4.2; the paper found no
  /// benefit — reproduced by bench_ablation_lgp).
  bool use_ema_lgp = false;
  double ema_beta = 0.5;
  double ema_alpha = 0.125;

  /// Gradient-importance ranking. kPgp is density-normalized PGP (the
  /// default, see pgp.hpp); kPgpSum is the paper's literal Eq. 4 sum;
  /// kMagnitude/kRandom are ablations.
  enum class Ranking { kPgp, kPgpSum, kMagnitude, kRandom } ranking =
      Ranking::kPgp;

  /// < 0: Algorithm 1 schedule. Otherwise a fixed ICS budget as a fraction
  /// of the model size (ablation; 0 degrades to BSP, ≥ cap to capped-ASP).
  double fixed_budget_fraction = -1.0;

  /// The Eq. 5 cap: U_max never exceeds this fraction of the model.
  double cap_fraction = 0.8;

  /// Account the GIB computation on worker 0 (co-located PS, §4.4/§5.4).
  /// The engine's cluster should also be configured co-located.
  bool colocated_ps = false;

  std::uint64_t seed = 7;  ///< for Ranking::kRandom
};

class OspSync : public runtime::SyncModel,
                private sync::RoundBarrier::Owner {
 public:
  explicit OspSync(OspOptions options = {});
  OspSync(OspOptions options, runtime::SyncTimeouts timeouts)
      : OspSync(options) {
    set_timeouts(timeouts);
  }

  [[nodiscard]] std::string name() const override;
  void attach(runtime::Engine& eng) override;
  void on_gradient_ready(std::size_t worker) override;
  void on_epoch_complete(std::size_t epoch, double mean_loss) override;
  void on_worker_crashed(std::size_t worker) override;
  void on_worker_restarted(std::size_t worker) override;
  void on_ps_crashed(std::size_t ps) override;
  void on_ps_restarted(std::size_t ps) override;

  /// Introspection for tests/benches.
  [[nodiscard]] const Gib& current_gib() const { return gib_; }
  [[nodiscard]] double current_ics_budget() const { return ics_budget_; }
  [[nodiscard]] double u_max() const;
  [[nodiscard]] std::size_t ics_rounds_completed() const {
    return ics_rounds_completed_;
  }
  [[nodiscard]] std::size_t num_ps() const { return num_ps_; }
  /// Currently-crashed worker count (drives the §4.3 fault degradation).
  [[nodiscard]] std::size_t num_unhealthy() const { return unhealthy_; }
  /// Introspection for tests: host currently serving logical shard `p`.
  [[nodiscard]] std::size_t serving_host(std::size_t p) const {
    return session_.serving(p);
  }

  void save_state(util::serde::Writer& w) const override;
  void load_state(util::serde::Reader& r) override;
  [[nodiscard]] bool drained() const override;

  /// The gradient-ready → finish_sync span is OSP's blocking RS stage.
  [[nodiscard]] runtime::TracePhase blocking_phase() const override {
    return runtime::TracePhase::kRs;
  }

 private:
  // ---- RS ----
  /// One shard flow of worker `worker`'s round-`round` important push,
  /// routed to shard `p`'s serving host.
  void push_rs_shard(std::size_t worker, std::uint64_t round, std::size_t p);
  void on_rs_push_arrived(std::uint64_t round, std::size_t p,
                          std::size_t worker);
  /// RS round `round` closed: reset the shard counts, open its telemetry.
  void round_closed(std::uint64_t round, std::size_t contributed) override;
  /// The closed RS round's step: important blocks, next GIB, answers, and
  /// the round's ICS.
  void step_round(std::uint64_t round,
                  const std::vector<bool>& contributors) override;
  /// Shard p's RS response for round `round` (split `round_gib`) reached
  /// worker w.
  void deliver_rs(std::size_t w, std::size_t p, std::uint64_t round,
                  const Gib& round_gib, double lr);
  /// Full-model resync pull answering `round`, served by shard 0's host;
  /// false while its whole chain is down (the RS watchdog retries).
  bool catch_up(std::size_t worker, std::uint64_t round) override;
  Gib compute_next_gib();

  // ---- PS failover: the model's half of a shard-session repoint ----
  /// The deposed host's collecting-round RS arrivals never made it into an
  /// aggregate: un-count them.
  void drop_rs_arrivals(std::size_t p);
  /// Re-push shard p to its new host: RS pushes of the collecting round
  /// and unapplied ICS shard pushes.
  void repush_shard(std::size_t p);

  // ---- ICS ----
  struct IcsRound {
    std::uint64_t round = 0;
    Gib gib = Gib::all_important(0);
    std::vector<float> grad;          ///< snapshot of the aggregate
    std::vector<bool> members;        ///< workers whose pushes we expect
    std::vector<std::vector<bool>> arrived_from;  ///< [ps][worker]
    std::vector<bool> applied;        ///< per-PS shard stepped + answered
  };
  void start_ics_round(std::uint64_t round, const Gib& gib,
                       const std::vector<bool>& members);
  void on_ics_push_arrived(std::uint64_t round, std::size_t ps,
                           std::size_t worker);
  /// Apply every shard whose remaining members' pushes all arrived; erase
  /// the round once all byte-carrying shards applied (or no member is
  /// left to deliver the rest).
  void check_ics_round(std::uint64_t round);
  /// Shard correction for `round` reached worker w (Eq. 7).
  void deliver_ics(std::size_t w, std::uint64_t round, const Gib& shard_view);

  /// The in-flight ICS round `round`, or ics_inflight_.end().
  std::vector<IcsRound>::iterator find_ics_round(std::uint64_t round);
  /// KV message addressed to PS `ps`'s blocks whose GIB state equals
  /// `important`: key list + wire accounting (no payload copy — RS/ICS
  /// values stay by-reference in the engine's buffers).
  [[nodiscard]] kv::KvMessage shard_message(kv::Op op, std::uint32_t sender,
                                            std::uint64_t round,
                                            std::size_t ps, const Gib& gib,
                                            bool important) const;
  // ---- observability ----
  //
  // ICS spans outlive IcsRound bookkeeping (the PS erases a round once all
  // shards are applied, while the correction responses are still on the
  // wire), so span state lives in its own map: round → start instant +
  // per-worker count of correction deliveries still expected. The span for
  // (round, worker) closes when the worker's last correction lands.
  struct IcsTrace {
    double begin_s = 0.0;
    std::map<std::size_t, std::size_t> pending;  ///< worker → deliveries left
  };
  /// A correction response for `round` reached worker `w`.
  void ics_trace_note_correction(std::uint64_t round, std::size_t w);
  /// The round died (timeout / every member crashed): close the open spans
  /// of still-alive members at the current instant.
  void ics_trace_abandon(std::uint64_t round);

  /// A Gib view selecting blocks with (gib state == want_important) AND
  /// owner == ps. With encode_as_important=true the selection becomes the
  /// view's *important* set (for copy_important_blocks); with false it
  /// becomes the *unimportant* set (for the LGP helpers, which operate on
  /// unimportant blocks). Unselected blocks land in the opposite set and
  /// are therefore untouched by the corresponding helper.
  [[nodiscard]] Gib restrict_to_ps(const Gib& gib, std::size_t ps,
                                   bool want_important,
                                   bool encode_as_important) const;

  OspOptions options_;
  util::Rng rng_;

  Gib gib_;                    ///< split used by the current round
  std::unique_ptr<SguTuner> tuner_;
  double ics_budget_ = 0.0;    ///< bytes allowed into ICS
  std::unique_ptr<EmaLgp> ema_lgp_;

  std::size_t num_ps_ = 1;
  kv::Partition part_;     ///< block → PS (byte-balanced)
  /// Store, replicas, serving hosts and all RS/ICS traffic (worker-owned
  /// flows); RS responses ride its answer ledger.
  kv::ShardSession session_;

  sync::RoundBarrier rs_;  ///< the RS stage
  std::vector<std::size_t> rs_pending_;  ///< per-worker RS responses awaited
  std::size_t unhealthy_ = 0;  ///< workers currently crashed

  std::vector<IcsRound> ics_inflight_;
  std::vector<std::uint64_t> last_ics_applied_;  ///< per worker
  std::size_t ics_rounds_completed_ = 0;
  std::map<std::uint64_t, IcsTrace> ics_trace_;  ///< tracing only

  /// Collecting-round RS arrivals per [shard][worker]: a worker contributes
  /// once every shard has its push, and a promotion un-counts the arrivals
  /// the dead host was holding.
  std::vector<std::vector<std::uint8_t>> rs_arrived_;
};

}  // namespace osp::core
