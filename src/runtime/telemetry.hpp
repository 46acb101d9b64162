// Per-round synchronization telemetry.
//
// Every sync model reports one record per synchronization round it closes
// (a BSP barrier, an ASP per-worker exchange, an OSP RS round) through
// Engine::telemetry_round(). The record carries the quantities the paper
// argues with: who contributed, how the GIB split the model (§4.1), the
// S(Gᵘ) budget in force (Algorithm 1 / §5.3), the magnitude of the LGP
// correction the ICS delivered (Eq. 7), fault-path retries, and wire
// traffic. Records accumulate into RunResult::rounds and dump as JSONL —
// one JSON object per line — for the run inspector and offline analysis.
//
// Telemetry is strictly read-only with respect to training numerics: it is
// populated from values the models already computed and is NOT part of the
// checkpoint state, so enabling it cannot perturb bit-identity guarantees.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace osp::runtime {

struct SyncTelemetry {
  std::uint64_t round = 0;        ///< sync-model round id (1-based)
  double close_time_s = 0.0;      ///< virtual time the round closed
  std::size_t contributors = 0;   ///< gradients folded into this round
  /// GIB split of the round (non-OSP models: everything "important").
  std::size_t gib_important = 0;
  std::size_t gib_unimportant = 0;
  double important_bytes = 0.0;   ///< wire bytes of the blocking stage
  double unimportant_bytes = 0.0; ///< wire bytes riding the ICS
  /// S(Gᵘ): the ICS byte budget in force when the round closed (Eq. 5 /
  /// Algorithm 1). 0 for non-OSP models.
  double ics_budget_bytes = 0.0;
  /// Accumulated squared L2 of the ICS corrections delivered for this
  /// round (global − LGP-predicted params over the corrected blocks,
  /// summed across members and shards). Use lgp_correction_l2().
  double lgp_correction_sq = 0.0;
  std::size_t retries = 0;        ///< catch-up pulls issued at this close
  std::size_t timeouts = 0;       ///< 1 when a deadline closed the round
  /// Payload bytes delivered on the network since the previous telemetry
  /// record (a per-round view of wire traffic; responses of round r and
  /// pushes of round r+1 land in record r+1's window).
  double wire_bytes = 0.0;
  /// Replication health (kv/shard_session.hpp): segments whose backup
  /// replica was stale when the round closed, key ranges repointed at a
  /// replica during the round, and the bytes the version-predicate
  /// catch-ups shipped. All zero for models without PS replication.
  std::size_t replica_lag = 0;
  std::size_t promotions = 0;
  double catch_up_bytes = 0.0;

  [[nodiscard]] double lgp_correction_l2() const {
    return std::sqrt(lgp_correction_sq);
  }
};

/// Dump one JSON object per record, newline-delimited (JSONL). Returns
/// false on I/O failure.
bool write_telemetry_jsonl(const std::string& path,
                           const std::vector<SyncTelemetry>& rounds);

}  // namespace osp::runtime
