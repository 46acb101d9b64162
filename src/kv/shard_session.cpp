#include "kv/shard_session.hpp"

#include <algorithm>
#include <utility>

#include "util/serde.hpp"

namespace osp::kv {

void ShardSession::init(runtime::Engine& eng, const Partition& part,
                        std::span<const double> key_bytes,
                        std::size_t num_shards, Hooks hooks) {
  OSP_CHECK(key_bytes.size() == part.owner.size(),
            "key byte table arity mismatch");
  eng_ = &eng;
  hooks_ = std::move(hooks);
  std::vector<std::size_t> offsets;
  std::vector<std::size_t> numels;
  for (const auto& b : eng.blocks()) {
    offsets.push_back(b.offset);
    numels.push_back(b.numel);
  }
  store_.init(offsets, numels);
  owner_ = part.owner;
  key_bytes_.assign(key_bytes.begin(), key_bytes.end());
  backup_versions_.assign(owner_.size(), 0);
  const ConsistentHashRing ring(part.num_shards);
  chains_.assign(num_shards, {});
  for (std::size_t s = 0; s < num_shards; ++s) {
    chains_[s] = {s};
    if (ring.successor(s) != s) chains_[s].push_back(ring.successor(s));
  }
  alive_.assign(part.num_shards, true);
  serving_.resize(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) serving_[s] = s;
  epochs_.assign(num_shards, 0);
  answers_.clear();
  next_answer_ = 0;
}

std::size_t ShardSession::lag() const {
  std::size_t stale = 0;
  for (std::size_t k = 0; k < owner_.size(); ++k) {
    if (backup_versions_[k] != store_.version(static_cast<Key>(k))) ++stale;
  }
  return stale;
}

void ShardSession::applied(const std::vector<bool>& mask) {
  for (std::size_t k = 0; k < mask.size(); ++k) {
    if (!mask[k]) continue;
    store_.bump(static_cast<Key>(k));
    // The backup is known-good up to the previous version.
    backup_versions_[k] = store_.version(static_cast<Key>(k)) - 1;
  }
}

void ShardSession::answer(std::size_t shard, double bytes,
                          std::function<void(std::size_t)> fire) {
  answers_.push_back(
      {next_answer_++, shard, serving_[shard], bytes, std::move(fire)});
  submit(answers_.back());
}

void ShardSession::submit(const Answer& a) {
  if (a.host == npos) return;  // re-submitted by the restart's repoint
  runtime::Engine& e = *eng_;
  e.ps_submit(
      e.ps_apply_delay(a.bytes, 3.0),
      [this, id = a.id] {
        const auto it =
            std::find_if(answers_.begin(), answers_.end(),
                         [id](const Answer& x) { return x.id == id; });
        if (it == answers_.end()) return;
        // Detach before firing: once on the wire there is nothing left
        // to re-drive.
        const Answer done = std::move(*it);
        answers_.erase(it);
        done.fire(done.host);
      },
      a.host);
}

void ShardSession::on_ps_crashed(std::size_t ps) {
  alive_.at(ps) = false;
  for (Answer& a : answers_) {
    if (a.host == ps) a.host = npos;  // its job died with the queue
  }
  for (std::size_t s = 0; s < serving_.size(); ++s) repoint(s);
  // A shard that failed back away from `ps` may still have owed answers
  // there; its serving host did not change, so no repoint re-drove them.
  for (std::size_t s = 0; s < serving_.size(); ++s) resubmit(s);
}

void ShardSession::on_ps_restarted(std::size_t ps) {
  alive_.at(ps) = true;
  for (std::size_t s = 0; s < serving_.size(); ++s) repoint(s);
}

void ShardSession::repoint(std::size_t shard) {
  runtime::Engine& e = *eng_;
  const auto& chain = chains_[shard];
  const auto first_alive = std::find_if(
      chain.begin(), chain.end(), [&](std::size_t h) { return alive_[h]; });
  const std::size_t target = first_alive == chain.end() ? npos : *first_alive;
  if (target == serving_[shard]) return;
  serving_[shard] = target;
  ++epochs_[shard];  // arrivals addressed to the deposed host are void
  if (hooks_.deposed) hooks_.deposed(shard);
  if (target == npos) return;  // wait for a restart
  // Catch-up ships the shard's stale keys onto the new host's queue.
  double shipped = 0.0;
  for (std::size_t k = 0; k < owner_.size(); ++k) {
    const std::uint64_t v = store_.version(static_cast<Key>(k));
    if (owner_[k] != shard || backup_versions_[k] == v) continue;
    shipped += key_bytes_[k];
    backup_versions_[k] = v;
  }
  e.record_ps_promotion(shipped);
  runtime::SyncTelemetry& rec =
      e.telemetry_round(hooks_.collecting_round(shard));
  ++rec.promotions;
  rec.catch_up_bytes += shipped;
  if (shipped > 0.0) {
    e.ps_submit(e.ps_apply_delay(shipped, 1.0), [] {}, target);
  }
  resubmit(shard);
  hooks_.repush(shard);
}

void ShardSession::resubmit(std::size_t shard) {
  if (serving_[shard] == npos) return;
  // Re-answered, never re-applied: the step already ran and bumped the
  // store versions once.
  for (Answer& a : answers_) {
    if (a.shard != shard || a.host != npos) continue;
    a.host = serving_[shard];
    submit(a);
  }
}

void ShardSession::save_state(util::serde::Writer& w) const {
  w.size_vec(serving_);
  w.u64_vec(epochs_);
  w.u64_vec(backup_versions_);
  w.bool_vec(alive_);
  store_.save_state(w);
}

void ShardSession::load_state(util::serde::Reader& r) {
  const std::vector<std::size_t> serving = r.size_vec();
  const std::vector<std::uint64_t> epochs = r.u64_vec();
  const std::vector<std::uint64_t> backups = r.u64_vec();
  const std::vector<bool> alive = r.bool_vec();
  OSP_CHECK(serving.size() == serving_.size() &&
                epochs.size() == epochs_.size() &&
                backups.size() == backup_versions_.size() &&
                alive.size() == alive_.size(),
            "shard session checkpoint size mismatch");
  serving_ = serving;
  epochs_ = epochs;
  backup_versions_ = backups;
  alive_ = alive;
  store_.load_state(r);
  answers_.clear();
}

}  // namespace osp::kv
