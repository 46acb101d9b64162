#include "sync/kv_bsp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>

#include "runtime/engine.hpp"
#include "util/check.hpp"
#include "util/serde.hpp"
#include "util/simd.hpp"
#include "util/vec_math.hpp"

namespace osp::sync {

KvBspOptions sharded_bsp() {
  KvBspOptions o;
  o.profile = KvBspProfile::kSharded;
  return o;
}

KvBspOptions compressed_bsp(kv::CompressionMode mode, double keep_fraction,
                            std::uint64_t seed, bool error_feedback) {
  KvBspOptions o;
  o.profile = KvBspProfile::kTopK;
  o.topk_mode = mode;
  o.topk_keep_fraction = keep_fraction;
  o.topk_seed = seed;
  o.error_feedback = error_feedback;
  return o;
}

KvBspOptions quantized_bsp() {
  KvBspOptions o;
  o.profile = KvBspProfile::kQ8;
  o.quantize_int8 = true;
  return o;
}

KvBspSync::KvBspSync(KvBspOptions options) : options_(options) {
  const double keep = options_.topk_keep_fraction;
  OSP_CHECK(options_.profile != KvBspProfile::kQ8 || options_.quantize_int8,
            "the Q8 profile needs the int8 stage");
  // Stage order is the composition contract: key addressing first, then
  // the block-level GIB projection, then element-level top-k over the
  // survivors, then the int8 value transform (quantizer composes after
  // the sparsifier — it divides whatever value bytes remain).
  if (options_.key_cache) {
    pipeline_.add(std::make_unique<kv::KeyCacheFilter>());
  }
  if (options_.gib_keep_fraction > 0.0 && options_.gib_keep_fraction < 1.0) {
    gib_ = static_cast<kv::GibFilter*>(&pipeline_.add(
        std::make_unique<kv::GibFilter>(options_.gib_attach_bitmap)));
  }
  if (options_.profile == KvBspProfile::kTopK || (keep > 0.0 && keep < 1.0)) {
    // The selection RNG lives in the filter and is constructed once here:
    // re-attaching must not rewind the stream. The filter rejects a keep
    // fraction outside (0, 1].
    pipeline_.add(std::make_unique<kv::TopKFilter>(options_.topk_mode, keep,
                                                   options_.topk_seed));
  }
  if (options_.quantize_int8) {
    pipeline_.add(std::make_unique<kv::QuantizeInt8Filter>());
  }
  OSP_CHECK(!per_ps() || (pipeline_.size() == 0 && !options_.error_feedback),
            "per-PS shards push by reference: no filters, no error feedback");
}

std::string KvBspSync::name() const {
  std::string n;
  switch (options_.profile) {
    case KvBspProfile::kSharded:
      return "BSP(x" +
             std::to_string(std::max<std::size_t>(1, shards_.size())) + "PS)";
    case KvBspProfile::kQ8:
      n = "Q8-BSP";
      break;
    case KvBspProfile::kTopK: {
      // %g keeps the exact fraction ("12.5%"), not a truncated integer.
      char pct[32];
      std::snprintf(pct, sizeof(pct), "%g",
                    options_.topk_keep_fraction * 100.0);
      n = options_.topk_mode == kv::CompressionMode::TopK ? "TopK" : "RandomK";
      n += "(";
      n += pct;
      n += "%)";
      break;
    }
    case KvBspProfile::kKv:
      n = pipeline_.size() == 0 ? "KvBSP" : "KvBSP[" + pipeline_.name() + "]";
      break;
  }
  return options_.error_feedback ? n + "+EF" : n;
}

void KvBspSync::attach(runtime::Engine& eng) {
  SyncModel::attach(eng);
  const std::size_t n = eng.num_workers();
  const std::size_t nb = eng.num_blocks();
  const std::size_t numel = eng.global_params().size();
  std::vector<double> proxy_bytes;  // a block at its own fp32 size
  for (const auto& b : eng.blocks()) {
    proxy_bytes.push_back(4.0 * static_cast<double>(b.numel));
  }
  const bool real_scale = options_.profile == KvBspProfile::kSharded ||
                          options_.profile == KvBspProfile::kQ8;
  const std::size_t num_ps = eng.cluster().num_ps();
  kv::Partition part;
  std::vector<double> dense;
  if (per_ps()) {
    part = kv::byte_balanced_partition(eng.all_block_bytes(), num_ps);
    dense = kv::partition_bytes(eng.all_block_bytes(), part);
  } else {
    // One logical shard (primary host 0) spanning every PS host; the
    // ring-successor rule picks the backup.
    part.num_shards = num_ps;
    part.owner.assign(nb, 0);
    dense = {real_scale ? eng.model_bytes()
                        : 4.0 * static_cast<double>(numel)};
  }
  // Catch-up prices a key at the profile's byte scale.
  session_.init(
      eng, part, real_scale ? eng.all_block_bytes() : proxy_bytes,
      dense.size(),
      {.collecting_round =
           [this](std::size_t s) { return shards_[s].barrier.collecting(); },
       .deposed =
           [this, n](std::size_t s) {
             RoundBarrier& b = shards_[s].barrier;
             for (std::size_t w = 0; w < n; ++w) b.withdraw(w);
           },
       .repush =
           [this, n](std::size_t s) {
             // The deposed host's collection is gone: workers that await
             // the collecting round re-send (real traffic, so re-charged).
             const RoundBarrier& b = shards_[s].barrier;
             for (std::size_t w = 0; w < n; ++w) {
               if (b.awaiting(w) && b.awaiting_round(w) == b.collecting()) {
                 push(w, s, b.collecting());
               }
             }
           }});
  shards_.clear();
  for (std::size_t s = 0; s < dense.size(); ++s) {
    Shard& sh = shards_.emplace_back(*this, s);
    sh.mask.assign(nb, false);
    for (std::size_t b = 0; b < nb; ++b) {
      if (part.owner[b] != s) continue;
      sh.keys.push_back(static_cast<kv::Key>(b));
      sh.mask[b] = true;
    }
    sh.dense_bytes = dense[s];
    sh.barrier.attach(eng, timeouts().rs_timeout_s, sh);
  }
  if (gib_ != nullptr) {
    std::vector<kv::GibFilter::Block> blocks;
    for (std::size_t b = 0; b < nb; ++b) {
      const auto& info = eng.blocks()[b];
      blocks.push_back({info.offset, info.numel, proxy_bytes[b]});
    }
    gib_->set_blocks(std::move(blocks));
    gib_keep_.assign(nb, 1);  // round 1: everything travels
    gib_->set_selection(gib_keep_);
  }
  inbox_.assign(n, kv::KvMessage{});
  if (!per_ps()) {
    for (kv::KvMessage& m : inbox_) m.values.assign(numel, 0.0f);
  }
  residual_.assign(options_.error_feedback ? n : 0,
                   std::vector<float>(numel, 0.0f));
  agg_.assign(numel, 0.0f);
  tel_push_bytes_ = 0.0;
  last_round_push_bytes_ = 0.0;
}

void KvBspSync::on_gradient_ready(std::size_t worker) {
  if (!per_ps()) encode_push(worker);
  // The worker pushes to the earliest round a shard collects. A shard that
  // closed that round without it (it crashed, or a deadline passed) is
  // ahead: the push lands late there and is answered by a catch-up pull,
  // so every shard counts the worker's next push in the same round.
  auto round = shards_.front().barrier.collecting();
  for (const auto& s : shards_) round = std::min(round, s.barrier.collecting());
  for (Shard& sh : shards_) {
    sh.barrier.push(worker, round,
                    [&](std::uint64_t r) { push(worker, sh.index, r); });
  }
}

void KvBspSync::on_worker_crashed(std::size_t worker) {
  for (Shard& sh : shards_) sh.barrier.crashed(worker);
}

void KvBspSync::encode_push(std::size_t worker) {
  auto grad = eng().worker_gradient(worker);
  kv::KvMessage& m = inbox_[worker];
  m.begin(kv::Op::kPush, static_cast<std::uint32_t>(worker),
          shards_[0].barrier.collecting(), session_.store().key_range());
  if (options_.error_feedback) {
    // Fold the previously untransmitted mass back in, writing
    // grad + residual to both the transmit buffer and the residual in one
    // pass (the residual copy is what sub() consumes below).
    std::vector<float>& res = residual_[worker];
    util::simd::kernels().add_copy2(grad.data(), res.data(), m.values.data(),
                                    res.data(), grad.size());
  } else {
    util::copy(grad, m.values);
  }
  m.dense_numel = grad.size();
  m.dense_value_bytes = m.value_bytes = shards_[0].dense_bytes;
  pipeline_.encode(m);
  if (options_.error_feedback) {
    // residual = (grad + residual) − transmitted.
    util::sub(residual_[worker], m.values, residual_[worker]);
  }
}

void KvBspSync::push(std::size_t worker, std::size_t shard,
                     std::uint64_t round) {
  const Shard& sh = shards_[shard];
  kv::KvMessage& m = inbox_[worker];
  if (per_ps()) {
    // The push addresses the shard's key list; the gradient stays in the
    // worker's buffer (the PS reads it at aggregate time), so the message
    // carries accounting + addressing only.
    m.begin(kv::Op::kPush, static_cast<std::uint32_t>(worker), round, {});
    m.keys = sh.keys;
    m.set_accounting(sh.dense_bytes);
  }
  tel_push_bytes_ += m.wire_bytes();
  // With the whole chain down the worker stays awaiting the collecting
  // round and re-pushes when a restart repoints the shard.
  session_.push(worker, shard, m, [this, shard, worker, round] {
    RoundBarrier& b = shards_[shard].barrier;
    if (b.late(round, worker)) return;
    b.contribute(worker);
  });
}

void KvBspSync::aggregate(std::size_t shard, std::uint64_t round,
                          const std::vector<bool>& contributors) {
  runtime::Engine& e = eng();
  const Shard& sh = shards_[shard];
  const std::size_t n = e.num_workers();
  if (!per_ps()) {
    // Symmetry rule: in-memory delivery kept the dense receiver view, so
    // decode is a structural no-op — the PS trains on what a decode of
    // the serialized compact form would reproduce.
    for (kv::KvMessage& m : inbox_) pipeline_.decode(m);
  }
  // Mean of the contributors' gradients over the shard's blocks (shards
  // own disjoint blocks, so they aggregate independently): 1/N on a full
  // round, 1/k over a partial round's k contributors.
  const float scale =
      1.0f / static_cast<float>(std::ranges::count(contributors, true));
  for (const kv::Key k : sh.keys) {
    const auto& info = e.blocks()[k];
    auto dst = std::span<float>(agg_).subspan(info.offset, info.numel);
    util::fill(dst, 0.0f);
    for (std::size_t w = 0; w < n; ++w) {
      if (!contributors[w]) continue;
      const std::span<const float> src =
          per_ps() ? e.worker_gradient(w)
                   : std::span<const float>(inbox_[w].values);
      util::axpy(scale, src.subspan(info.offset, info.numel), dst);
    }
  }
  e.apply_global_step_blocks(agg_, sh.mask);
  session_.applied(sh.mask);
  update_gib_selection();
  // Per-PS shards of one logical round share a telemetry record (opened
  // by round_closed); every push of the round was sent before its first
  // shard closed.
  runtime::SyncTelemetry& rec = e.telemetry_round(round);
  rec.important_bytes = tel_push_bytes_;
  rec.replica_lag = session_.lag();
  if (std::all_of(shards_.begin(), shards_.end(), [&](const Shard& x) {
        return x.barrier.rounds_closed() == round;
      })) {
    last_round_push_bytes_ = tel_push_bytes_;
    tel_push_bytes_ = 0.0;
  }
  double bytes = sh.dense_bytes;  // the response broadcast's size
  if (options_.profile == KvBspProfile::kTopK) {
    // The response carries only the touched entries (union support).
    std::size_t support = 0;
    for (float v : agg_) support += v != 0.0f ? 1 : 0;
    bytes = std::min(e.model_bytes(), static_cast<double>(support) * 8.0);
  } else if (options_.profile == KvBspProfile::kQ8) {
    bytes = sh.dense_bytes / 4.0 + 4.0;
  }
  const double apply =
      options_.profile == KvBspProfile::kTopK ? bytes : sh.dense_bytes;
  session_.answer(
      shard, apply,
      [this, shard, round, bytes, contributors](std::size_t host) {
        // The round's contributors that still await its answer.
        const RoundBarrier& b = shards_[shard].barrier;
        for (std::size_t w = 0; w < contributors.size(); ++w) {
          if (contributors[w] && b.awaiting(w) &&
              b.awaiting_round(w) == round) {
            answer(shard, host, w, round, bytes);
          }
        }
      });
}

bool KvBspSync::catch_up(std::size_t shard, std::size_t worker,
                         std::uint64_t round) {
  const std::size_t host = session_.serving(shard);
  if (host == kv::ShardSession::npos) return false;
  // At the dense push scale.
  answer(shard, host, worker, round, shards_[shard].dense_bytes);
  return true;
}

void KvBspSync::answer(std::size_t shard, std::size_t host,
                       std::size_t worker, std::uint64_t round,
                       double bytes) {
  kv::KvMessage resp;
  resp.begin(kv::Op::kPullResponse, static_cast<std::uint32_t>(host), round,
             {});
  resp.keys = shards_[shard].keys;
  session_.store().stamp_versions(resp);
  resp.set_accounting(bytes);
  session_.respond(worker, host, resp, [this, shard, worker, round] {
    deliver(shard, worker, round);
  });
}

void KvBspSync::deliver(std::size_t shard, std::size_t worker,
                        std::uint64_t round) {
  runtime::Engine& e = eng();
  Shard& sh = shards_[shard];
  // A duplicate after a failover re-broadcast (the first copy already
  // installed these version-stamped blocks), or an answer older than the
  // worker's last push, no-ops.
  if (!sh.barrier.settle(worker, round)) return;
  for (const kv::Key k : sh.keys) {
    const auto& info = e.blocks()[k];
    util::copy(e.global_params().subspan(info.offset, info.numel),
               e.worker_params(worker).subspan(info.offset, info.numel));
  }
  if (std::none_of(shards_.begin(), shards_.end(), [&](const Shard& x) {
        return x.barrier.awaiting(worker);
      })) {
    e.finish_sync(worker);
  }
}

void KvBspSync::on_ps_crashed(std::size_t ps) { session_.on_ps_crashed(ps); }

void KvBspSync::on_ps_restarted(std::size_t ps) {
  session_.on_ps_restarted(ps);
}

void KvBspSync::update_gib_selection() {
  if (gib_ == nullptr) return;
  runtime::Engine& e = eng();
  const std::size_t nb = e.num_blocks();
  // Density-normalized magnitude: mean |agg| per block.
  std::vector<double> importance(nb, 0.0);
  for (std::size_t b = 0; b < nb; ++b) {
    const auto& info = e.blocks()[b];
    double sum = 0.0;
    for (std::size_t i = info.offset; i < info.offset + info.numel; ++i) {
      sum += std::abs(static_cast<double>(agg_[i]));
    }
    importance[b] = info.numel > 0 ? sum / static_cast<double>(info.numel)
                                   : 0.0;
  }
  std::vector<std::size_t> order(nb);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return importance[a] > importance[b];
                   });
  double total = 0.0;
  for (const auto& blk : gib_->blocks()) total += blk.wire_bytes;
  const double budget = options_.gib_keep_fraction * total;
  gib_keep_.assign(nb, 0);
  double kept = 0.0;
  for (std::size_t i = 0; i < nb; ++i) {
    const std::size_t b = order[i];
    if (i > 0 && kept + gib_->blocks()[b].wire_bytes > budget) continue;
    gib_keep_[b] = 1;
    kept += gib_->blocks()[b].wire_bytes;
  }
  gib_->set_selection(gib_keep_);
}

void KvBspSync::save_state(util::serde::Writer& w) const {
  w.u8(5);  // KvBSP state version (5: a round barrier per shard)
  w.u64(shards_.size());
  for (const Shard& sh : shards_) sh.barrier.save_state(w);
  pipeline_.save_state(w);  // RNG streams, key caches
  w.bytes(gib_keep_);
  // Error-feedback residuals are true training state: losing them changes
  // every later encode. Without error feedback there are none.
  w.u64(residual_.size());
  for (const auto& res : residual_) w.f32_vec(res);
  session_.save_state(w);
}

void KvBspSync::load_state(util::serde::Reader& r) {
  const std::uint8_t version = r.u8();
  OSP_CHECK(version == 5, "unsupported KvBSP state version");
  OSP_CHECK(r.u64() == shards_.size(),
            "KvBSP checkpoint shard count mismatch");
  for (Shard& sh : shards_) sh.barrier.load_state(r);
  pipeline_.load_state(r);
  gib_keep_ = r.bytes();
  if (gib_ != nullptr) {
    OSP_CHECK(gib_keep_.size() == eng().num_blocks(),
              "KvBSP checkpoint GIB selection size mismatch");
    gib_->set_selection(gib_keep_);
  }
  OSP_CHECK(r.u64() == residual_.size(),
            "KvBSP checkpoint residual count mismatch");
  // Read straight into the attached residual buffers (f32_into validates
  // the stored length against each buffer's size).
  for (auto& res : residual_) r.f32_into(res);
  session_.load_state(r);
}

bool KvBspSync::drained() const {
  return std::all_of(shards_.begin(), shards_.end(),
                     [](const Shard& sh) { return sh.barrier.drained(); });
}

}  // namespace osp::sync
