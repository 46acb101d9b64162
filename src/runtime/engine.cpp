#include "runtime/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "util/check.hpp"
#include "util/vec_math.hpp"

namespace osp::runtime {

namespace {

/// Teardown join: wait for the task and drop anything it threw. Nothing
/// reads a torn-down task's outputs, and a failure the run could report
/// has already been rethrown by run()'s own joins.
void join_quietly(util::TaskHandle& handle) {
  try {
    handle.join();
  } catch (...) {
  }
}

/// Every layer allocates and frees activation tensors of ~0.1–0.3 MB per
/// step. glibc serves blocks that size with mmap until its dynamic
/// threshold catches up, and trims freed heap tops back to the kernel, so
/// the next step faults the same pages in again. Fixed thresholds above
/// those sizes keep freed buffers in the heap for reuse, and a 16 MiB top
/// pad grows the heap in steps large enough that tearing one engine down
/// and building the next does not trim and refault its top (DESIGN.md,
/// "Allocator"). Every Engine sets the same values.
void keep_freed_buffers_in_heap() {
#ifdef __GLIBC__
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  mallopt(M_TRIM_THRESHOLD, 4 << 20);
  mallopt(M_TOP_PAD, 16 << 20);
#endif
}

}  // namespace

Engine::Engine(const WorkloadSpec& spec, const EngineConfig& config,
               SyncModel& sync)
    : spec_(&spec), config_(config), sync_(&sync) {
  keep_freed_buffers_in_heap();
  OSP_CHECK(config.num_workers > 0, "need at least one worker");
  OSP_CHECK(config.max_epochs > 0, "need at least one epoch");
  OSP_CHECK(spec.build_model != nullptr, "workload has no model builder");
  OSP_CHECK(spec.train != nullptr && spec.eval != nullptr,
            "workload has no datasets");
  OSP_CHECK(spec.real_param_bytes > 0.0 && spec.flops_per_sample > 0.0,
            "workload timing metadata missing");

  // Cluster: the engine forces worker count consistency.
  sim::ClusterConfig cluster_cfg = config.cluster;
  cluster_cfg.num_workers = config.num_workers;
  cluster_ = std::make_unique<sim::Cluster>(sim_, cluster_cfg);

  compute_model_.flops_per_sample = spec.flops_per_sample;
  compute_model_.node = cluster_cfg.node;
  compute_model_.straggler_jitter = config.straggler_jitter;

  // Proxy model + flat view. scratch_model_ is the block-layout authority
  // and the serial path's eval model; worker math and async evals run on
  // replicas_, a pool of identically-built models, so they can overlap.
  scratch_model_ = spec.build_model(config.seed);
  flat_ = std::make_unique<nn::FlatModel>(scratch_model_);
  replicas_ = std::make_unique<ReplicaPool>(spec.build_model, config.seed);
  pool_ = &util::ThreadPool::global();
  async_math_ = config.async_worker_math;
  // A single-thread pool cannot overlap anything: submitting jobs would
  // only add handoff latency between the event loop and the one worker.
  // Results are identical either way, so quietly take the serial path.
  if (pool_->size() <= 1) async_math_ = false;
  const double total = static_cast<double>(flat_->total_params());
  block_bytes_.reserve(flat_->num_blocks());
  for (const nn::LayerBlockInfo& b : flat_->blocks()) {
    block_bytes_.push_back(spec.real_param_bytes *
                           static_cast<double>(b.numel) / total);
  }

  global_params_.resize(flat_->total_params());
  flat_->gather_params(global_params_);
  optimizer_ = std::make_unique<nn::SgdOptimizer>(flat_->total_params(),
                                                  config.momentum);

  util::Rng master(config.seed);
  workers_.resize(config.num_workers);
  for (std::size_t w = 0; w < config.num_workers; ++w) {
    WorkerState& ws = workers_[w];
    ws.params = global_params_;
    ws.grad.assign(flat_->total_params(), 0.0f);
    ws.batch_size = spec.batch_size;
    if (config.balance_batch_to_speed) {
      // §6.2: batch ∝ speed equalizes compute time across workers.
      const double scaled = static_cast<double>(spec.batch_size) *
                            cluster_->speed_factor(w);
      ws.batch_size = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::llround(scaled)));
    }
    ws.loader = std::make_unique<data::ShardLoader>(
        *spec.train, w, config.num_workers, ws.batch_size,
        config.seed ^ 0xabcdef12345ULL);
    ws.rng = master.fork(1000 + w);
  }

  ps_busy_until_.assign(cluster_cfg.num_ps, 0.0);
  ps_crashed_.assign(cluster_cfg.num_ps, 0);
  ps_crashed_at_.assign(cluster_cfg.num_ps, 0.0);
  ps_restart_at_.assign(cluster_cfg.num_ps, -1.0);
  ps_epoch_.assign(cluster_cfg.num_ps, 0);
  alive_count_ = config.num_workers;
  eval_stride_ = config.eval_every_samples > 0 ? config.eval_every_samples
                                               : spec.train->size();
  next_eval_at_samples_ = static_cast<double>(eval_stride_);
}

Engine::~Engine() {
  // Join every job the run left in flight (crash-abandoned math jobs,
  // pending compute cut short by a virtual-time cap or a checkpoint halt,
  // an eval whose run threw) before the replicas and loaders they
  // reference are destroyed. Joining steals still-queued jobs, and
  // cancelled ones no-op, so this is cheap.
  for (WorkerState& ws : workers_) {
    if (ws.job == nullptr) continue;
    ws.job->cancelled.store(true, std::memory_order_relaxed);
    join_quietly(ws.job->handle);
  }
  for (const std::shared_ptr<MathJob>& job : abandoned_jobs_) {
    join_quietly(job->handle);
  }
  if (eval_job_ != nullptr) {
    for (util::TaskHandle& h : eval_job_->handles) join_quietly(h);
  }
}

const std::vector<nn::LayerBlockInfo>& Engine::blocks() const {
  return flat_->blocks();
}

double Engine::block_bytes(std::size_t i) const {
  OSP_CHECK(i < block_bytes_.size(), "block index out of range");
  return block_bytes_[i];
}

double Engine::base_compute_time() const {
  return compute_model_.base_batch_time(spec_->batch_size);
}

double Engine::ps_apply_delay(double bytes, double passes) const {
  const double rate = config_.cluster.ps_apply_bytes_per_s;
  if (rate <= 0.0) return 0.0;
  return passes * bytes / rate;
}

void Engine::ps_submit(double seconds, std::function<void()> done,
                       std::size_t ps) {
  OSP_CHECK(seconds >= 0.0, "negative PS work");
  OSP_CHECK(done != nullptr, "null completion");
  OSP_CHECK(ps < ps_busy_until_.size(), "ps id out of range");
  // A dead host's queue is refusing connections; the submission is lost
  // (sync models route around crashed hosts via their replica chains).
  if (ps_crashed_[ps] != 0) return;
  const double start = std::max(sim_.now(), ps_busy_until_[ps]);
  ps_busy_until_[ps] = start + seconds;
  // The completion is invalidated if the host crashes before it fires:
  // the queue dies with the host and does not come back at restart.
  const std::uint64_t epoch = ps_epoch_[ps];
  sim_.schedule_at(ps_busy_until_[ps],
                   [this, ps, epoch, done = std::move(done)] {
                     if (ps_epoch_[ps] != epoch) return;
                     done();
                   });
}

std::span<const float> Engine::worker_gradient(std::size_t w) const {
  return workers_.at(w).grad;
}

std::span<float> Engine::worker_params(std::size_t w) {
  return workers_.at(w).params;
}

std::size_t Engine::worker_iteration(std::size_t w) const {
  return workers_.at(w).iteration;
}

std::size_t Engine::min_worker_iteration() const {
  std::size_t m = std::numeric_limits<std::size_t>::max();
  for (const WorkerState& ws : workers_) {
    if (!ws.crashed) m = std::min(m, ws.iteration);
  }
  return m;
}

std::size_t Engine::batches_per_epoch() const {
  return workers_[0].loader->batches_per_epoch();
}

std::size_t Engine::worker_batch(std::size_t w) const {
  return workers_.at(w).batch_size;
}

double Engine::worker_weight(std::size_t w) const {
  double total = 0.0;
  for (const WorkerState& ws : workers_) {
    total += static_cast<double>(ws.batch_size);
  }
  return static_cast<double>(workers_.at(w).batch_size) / total;
}

void Engine::set_worker_compute_overhead(std::size_t w, double fraction) {
  OSP_CHECK(fraction >= 0.0, "overhead fraction must be non-negative");
  workers_.at(w).compute_overhead = fraction;
}

void Engine::apply_global_step(std::span<const float> grad, double scale) {
  if (scale == 1.0) {
    optimizer_->step(global_params_, grad, current_lr());
    return;
  }
  scaled_grad_.assign(grad.begin(), grad.end());
  util::scale(scaled_grad_, static_cast<float>(scale));
  optimizer_->step(global_params_, scaled_grad_, current_lr());
}

void Engine::apply_global_step_blocks(std::span<const float> grad,
                                      const std::vector<bool>& block_mask) {
  OSP_CHECK(block_mask.size() == flat_->num_blocks(),
            "block mask arity mismatch");
  OSP_CHECK(grad.size() == global_params_.size(), "gradient size mismatch");
  const double lr = current_lr();
  for (std::size_t i = 0; i < block_mask.size(); ++i) {
    if (!block_mask[i]) continue;
    const nn::LayerBlockInfo& b = flat_->blocks()[i];
    optimizer_->step_range(
        std::span<float>{global_params_}.subspan(b.offset, b.numel),
        grad.subspan(b.offset, b.numel), lr, b.offset);
  }
}

double Engine::current_lr() const {
  std::size_t min_epoch = workers_[0].epoch;
  for (const WorkerState& ws : workers_) {
    min_epoch = std::min(min_epoch, ws.epoch);
  }
  return config_.lr_schedule.lr(min_epoch);
}

RunResult Engine::run() {
  OSP_CHECK(!ran_, "Engine::run is single-use");
  ran_ = true;
  sync_->attach(*this);

  next_checkpoint_iter_ = config_.checkpoint.every_iters;
  if (!config_.checkpoint.resume_from.empty()) {
    const RunCheckpoint ckpt =
        RunCheckpoint::load(config_.checkpoint.resume_from);
    restore_checkpoint(ckpt);
    // Rebuild the event queue the snapshot made empty. Setup order mirrors
    // the original run's same-time sequence order: the barrier release
    // first (in the original run the parked workers resumed the instant
    // the snapshot was taken), the static fault schedule next, pending
    // crash restarts (dynamically scheduled there, so always last among
    // equal-time events) at the end.
    sim_.schedule_at(ckpt.sim_time, [this] { release_parked(); });
    install_faults(ckpt.sim_time);
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      if (!workers_[w].crashed || workers_[w].restart_at < 0.0) continue;
      sim_.schedule_at(workers_[w].restart_at, [this, w] {
        maybe_checkpoint_now();
        if (halted_) return;
        restart_worker(w);
      });
    }
    for (std::size_t p = 0; p < ps_crashed_.size(); ++p) {
      if (ps_crashed_[p] == 0 || ps_restart_at_[p] < 0.0) continue;
      sim_.schedule_at(ps_restart_at_[p], [this, p] {
        maybe_checkpoint_now();
        if (halted_) return;
        restart_ps(p);
      });
    }
  } else {
    install_faults();
    for (std::size_t w = 0; w < config_.num_workers; ++w) begin_compute(w);
  }

  if (config_.record_trace) {
    // Observe every network flow for the trace: `started` stashes the
    // endpoints (resolved to node names while the route is at hand),
    // `ended` emits the FlowSpan. Both sample the in-flight-bytes counter.
    sim::Network::FlowTraceHooks hooks;
    hooks.started = [this](sim::FlowId id,
                           const std::vector<sim::LinkId>& route,
                           double begin_s, double bytes) {
      PendingFlow pf;
      pf.begin_s = begin_s;
      pf.bytes = bytes;
      pf.src = cluster_->link_node_name(route.front());
      pf.dst = cluster_->link_node_name(route.back());
      pending_flows_[id] = std::move(pf);
      trace_.add_counter(begin_s, "in_flight_bytes",
                         cluster_->network().bytes_in_flight());
    };
    hooks.ended = [this](sim::FlowId id, double end_s, bool cancelled) {
      const auto it = pending_flows_.find(id);
      if (it == pending_flows_.end()) return;
      trace_.add_flow({it->second.begin_s, end_s, std::move(it->second.src),
                       std::move(it->second.dst), it->second.bytes,
                       cancelled});
      pending_flows_.erase(it);
      trace_.add_counter(sim_.now(), "in_flight_bytes",
                         cluster_->network().bytes_in_flight());
    };
    cluster_->network().set_trace_hooks(std::move(hooks));
    trace_.add_counter(sim_.now(), "alive_workers",
                       static_cast<double>(num_alive()));
  }
  // Baseline for per-round wire accounting (a resumed run restores the
  // network's delivered-bytes counter).
  telemetry_bytes_mark_ = cluster_->network().bytes_delivered();

  while (true) {
    if (config_.max_virtual_time_s > 0.0) {
      sim_.run_until(config_.max_virtual_time_s);
    } else {
      sim_.run();
    }
    if (halted_ || !drain_pending_) break;
    if (!sim_.empty()) break;  // hit the virtual-time cap mid-drain
    // The queue starved with a drain pending: every worker is parked (or
    // done/crashed-forever) and no future fault event is left to trigger
    // the snapshot, so take it here and release the barrier. A worker
    // trailing the pack after a crash does not stall the cut: under faults
    // a barrier round, a CASP group and R²SP's token stop waiting on
    // workers at the cut (worker_parked).
    OSP_CHECK(maybe_checkpoint_now(), "checkpoint drain stalled");
    if (halted_) break;
  }
  if (!halted_) maybe_evaluate(/*force=*/true);
  join_evals();

  // Close out downtime of workers still crashed at run end.
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    WorkerState& ws = workers_[w];
    if (!ws.crashed) continue;
    fault_stats_.worker_downtime_s += sim_.now() - ws.crashed_at;
    if (config_.record_trace) {
      trace_.add({ws.crashed_at, sim_.now(), w, ws.iteration,
                  TracePhase::kDowntime});
    }
  }
  const sim::Network& net = cluster_->network();
  fault_stats_.flows_cancelled = net.flows_cancelled();
  fault_stats_.messages_dropped = net.messages_dropped();
  fault_stats_.messages_delayed = net.messages_delayed();

  RunResult result;
  result.faults = fault_stats_;
  result.sync_name = sync_->name();
  result.workload_name = spec_->name;
  result.total_time_s = sim_.now();
  result.total_samples = samples_processed_;
  result.throughput =
      result.total_time_s > 0.0 ? samples_processed_ / result.total_time_s
                                : 0.0;
  result.best_metric = metrics_.best_metric();
  result.mean_bct_s = metrics_.bct().mean();
  result.mean_bst_s = metrics_.bst().mean();
  result.steady_bst_s = metrics_.steady_bst();
  result.p99_bst_s = metrics_.bst_percentile(0.99);
  result.curve = metrics_.curve();
  // Steady-state throughput: samples over the final quarter of the run.
  result.steady_throughput = result.throughput;
  if (result.total_time_s > 0.0 && !result.curve.empty()) {
    const double t0 = 0.75 * result.total_time_s;
    double samples_at_t0 = 0.0;
    for (const EvalPoint& p : result.curve) {
      if (p.time_s <= t0) samples_at_t0 = p.samples;
    }
    const double window = result.total_time_s - t0;
    if (window > 0.0 && samples_at_t0 > 0.0) {
      result.steady_throughput =
          (samples_processed_ - samples_at_t0) / window;
    }
  }
  result.epoch_losses = metrics_.epoch_losses();
  if (!result.curve.empty()) {
    result.final_loss = result.curve.back().loss;
  }
  if (auto hit = metrics_.first_reaching(spec_->target_metric)) {
    result.time_to_target_s = hit->time_s;
    result.iters_to_target =
        hit->samples / static_cast<double>(spec_->batch_size *
                                           config_.num_workers);
  }
  result.checkpoints_taken = checkpoints_taken_;
  result.halted_at_checkpoint = halted_;
  result.rounds = telemetry_;
  return result;
}

SyncTelemetry& Engine::telemetry_round(std::uint64_t round) {
  if (!config_.record_telemetry) {
    telemetry_scratch_ = SyncTelemetry{};
    return telemetry_scratch_;
  }
  // Amendments (OSP's late ICS corrections, catch-up retries) target recent
  // rounds, so search newest-first.
  for (auto it = telemetry_.rbegin(); it != telemetry_.rend(); ++it) {
    if (it->round == round) return *it;
  }
  SyncTelemetry rec;
  rec.round = round;
  rec.close_time_s = sim_.now();
  const double delivered = cluster_->network().bytes_delivered();
  rec.wire_bytes = delivered - telemetry_bytes_mark_;
  telemetry_bytes_mark_ = delivered;
  telemetry_.push_back(std::move(rec));
  return telemetry_.back();
}

void Engine::begin_compute(std::size_t w) {
  WorkerState& ws = workers_[w];
  if (ws.crashed) return;  // the restart path re-enters the loop
  if (ws.epoch >= config_.max_epochs) {
    ws.done = true;
    stopping_ = std::all_of(workers_.begin(), workers_.end(),
                            [](const WorkerState& s) { return s.done; });
    return;
  }
  if (should_park(w)) {
    // Checkpoint drain barrier: hold the worker at this iteration boundary
    // until the snapshot is taken (take_checkpoint releases everyone).
    ws.parked = true;
    ws.park_begin_time = sim_.now();
    drain_pending_ = true;
    // If this was the last worker the cut was waiting on, snapshot right
    // now — otherwise the drain would sit idle until the next queued
    // event (e.g. a fault scheduled minutes ahead) fires the gate.
    maybe_checkpoint_now();
    return;
  }
  if (sim_.now() < ws.pause_until) {
    // Paused between iterations: defer until the window closes (re-checked
    // there in case the pause was extended meanwhile).
    sim_.schedule_at(ws.pause_until, [this, w] { begin_compute(w); });
    return;
  }
  // Every input of this iteration's real math is determined right here:
  // the param snapshot (gradients are computed against the params as of
  // compute start — sync traffic such as OSP's ICS correction may update
  // ws.params mid-flight without affecting this gradient), the epoch, and
  // the batch index. Package them into a job and, on the async path, start
  // it on the thread pool immediately so it overlaps other workers' math
  // and the event loop; the completion event joins it in on_compute_done.
  OSP_CHECK(ws.job == nullptr, "worker started computing twice");
  auto job = std::make_shared<MathJob>();
  job->worker = w;
  job->epoch = ws.epoch;
  job->batch_index = ws.iteration % ws.loader->batches_per_epoch();
  job->is_qa = spec_->is_qa;
  job->params = ws.params;
  job->loader = ws.loader.get();
  ws.job = job;
  if (async_math_) {
    job->handle = pool_->submit_task([this, job] { replicas_->execute(*job); });
  }
  ws.compute_begin_time = sim_.now();
  const double t = compute_model_.batch_time(ws.batch_size,
                                             cluster_->speed_factor(w),
                                             ws.rng) *
                   (1.0 + ws.compute_overhead);
  ws.pending_charge = t;
  schedule_compute_completion(w, sim_.now() + t);
}

void Engine::schedule_compute_completion(std::size_t w, double end_time) {
  WorkerState& ws = workers_[w];
  ws.compute_pending = true;
  ws.compute_end_time = end_time;
  const std::uint64_t ce = ++ws.compute_epoch;
  sim_.schedule_at(end_time, [this, w, ce] {
    WorkerState& s = workers_[w];
    if (s.compute_epoch != ce || !s.compute_pending) return;  // cancelled
    s.compute_pending = false;
    on_compute_done(w, s.pending_charge);
  });
}

void Engine::on_compute_done(std::size_t w, double charged_time) {
  WorkerState& ws = workers_[w];
  metrics_.record_bct(charged_time);
  if (config_.record_trace) {
    trace_.add({ws.compute_begin_time, sim_.now(), w, ws.iteration,
                TracePhase::kCompute});
  }

  // Join the real math for this iteration. Async path: the job has been
  // running on the pool since begin_compute — if it is still queued the
  // join steals and runs it right here, so the wait is never longer than
  // one job. Serial path: execute it now, exactly where the seed did. All
  // side effects below stay on the event loop, in event order, so the two
  // paths (and any thread count) produce bit-identical results.
  OSP_CHECK(ws.job != nullptr, "compute completion without a math job");
  const std::shared_ptr<MathJob> job = std::move(ws.job);
  if (async_math_) {
    job->handle.join();
  } else {
    replicas_->execute(*job);
  }
  std::swap(ws.grad, job->grad);

  ws.epoch_loss_sum += job->loss;
  ws.epoch_loss_count += 1;
  ws.grad_ready_time = sim_.now();
  samples_processed_ += static_cast<double>(job->samples);
  maybe_evaluate(/*force=*/false);

  sync_->on_gradient_ready(w);
}

void Engine::finish_sync(std::size_t w) {
  WorkerState& ws = workers_[w];
  // Stale callback: the restart path owns `w` until its state is back.
  if (ws.crashed || ws.restoring) return;
  OSP_CHECK(!ws.compute_pending,
            "sync model released a worker that is already computing");
  metrics_.record_bst(sim_.now() - ws.grad_ready_time);
  if (config_.record_trace) {
    // OSP reports kRs here — its blocking stage — so RS is distinguishable
    // from a generic barrier in the trace; ICS spans are model-emitted.
    trace_.add({ws.grad_ready_time, sim_.now(), w, ws.iteration,
                sync_->blocking_phase()});
  }
  ws.iteration += 1;
  if (ws.iteration % ws.loader->batches_per_epoch() == 0) {
    complete_epoch(w);
    ws.epoch += 1;
  }
  begin_compute(w);
}

void Engine::complete_epoch(std::size_t w) {
  WorkerState& ws = workers_[w];
  const std::size_t e = ws.epoch;  // 0-based epoch just completed
  if (epoch_done_counts_.size() <= e) {
    epoch_done_counts_.resize(e + 1, 0);
    epoch_loss_sums_.resize(e + 1, 0.0);
  }
  const double mean_loss =
      ws.epoch_loss_count > 0
          ? ws.epoch_loss_sum / static_cast<double>(ws.epoch_loss_count)
          : 0.0;
  ws.epoch_loss_sum = 0.0;
  ws.epoch_loss_count = 0;
  epoch_loss_sums_[e] += mean_loss;
  epoch_done_counts_[e] += 1;
  if (epoch_done_counts_[e] == config_.num_workers) {
    const double cluster_loss =
        epoch_loss_sums_[e] / static_cast<double>(config_.num_workers);
    metrics_.record_epoch_loss(cluster_loss);
    sync_->on_epoch_complete(e + 1, cluster_loss);  // 1-based for Alg. 1
  }
}

bool Engine::worker_alive(std::size_t w) const {
  return !workers_.at(w).crashed;
}

std::size_t Engine::num_alive() const { return alive_count_; }

void Engine::cancel_math_job(std::size_t w) {
  WorkerState& ws = workers_[w];
  if (ws.job == nullptr) return;
  ws.job->cancelled.store(true, std::memory_order_relaxed);
  if (async_math_ && !ws.job->handle.ready()) {
    // Still owed a join before teardown; drop finished strays first so the
    // list stays bounded by pool concurrency, not crash count.
    std::erase_if(abandoned_jobs_, [](const std::shared_ptr<MathJob>& j) {
      return j->handle.ready();
    });
    abandoned_jobs_.push_back(ws.job);
  }
  ws.job.reset();
}

bool Engine::worker_transfer(std::size_t owner,
                             std::vector<sim::LinkId> route, double bytes,
                             std::function<void()> done) {
  OSP_CHECK(done != nullptr, "worker transfer needs a completion");
  WorkerState& ws = workers_.at(owner);
  if (ws.crashed) return false;
  const double overhead = config_.cluster.transfer_overhead_s;
  if (route.empty()) {
    // Loopback (co-located PS): not a network flow, so not cancellable —
    // guard at delivery instead.
    loopback_transfer(overhead, [this, owner, life = ws.lives,
                                 done = std::move(done)] {
      if (workers_[owner].lives == life) done();
    });
    return false;
  }
  // The completion deregisters the flow by the id start_flow gives it.
  sim::Network& net = cluster_->network();
  const sim::FlowId id = net.next_flow_id();
  const sim::FlowId started = net.start_flow(
      std::move(route), bytes,
      [this, owner, id, life = ws.lives, done = std::move(done)] {
        WorkerState& s = workers_[owner];
        std::erase(s.flows, id);
        if (s.lives == life) done();  // else a zero-byte flow outlived it
        maybe_checkpoint_now();
      },
      overhead);
  if (started == sim::kNoFlow) return true;  // nothing to cancel or await
  ws.flows.push_back(id);
  return false;
}

void Engine::loopback_transfer(double delay, std::function<void()> done) {
  OSP_CHECK(delay >= 0.0, "negative loopback delay");
  OSP_CHECK(done != nullptr, "loopback transfer needs a completion");
  ++loopback_pending_;
  sim_.schedule(delay, [this, done = std::move(done)] {
    --loopback_pending_;
    done();
    maybe_checkpoint_now();
  });
}

void Engine::install_faults(double resume_time) {
  const bool resuming = resume_time >= 0.0;
  sim::Network& net = cluster_->network();
  // On resume the injection RNG mid-stream state was already restored with
  // the network; reseeding would rewind it.
  if (!resuming) net.set_injection_seed(config_.faults.seed());
  // Every event is gated on the pending-drain check: with all workers
  // parked the queue holds only future fault events, so the first one to
  // fire takes the snapshot — *before* its own effect, which therefore
  // replays on resume. Events already executed before the snapshot are
  // filtered out here; an event at exactly the snapshot time fired after
  // it (its gate is where the snapshot happened), so `>=` keeps it.
  auto gated = [this](const sim::FaultEvent& ev) {
    sim_.schedule_at(ev.time, [this, ev] {
      maybe_checkpoint_now();
      if (halted_) return;
      apply_fault(ev);
    });
  };
  for (const sim::FaultEvent& ev : config_.faults.events()) {
    const bool start_pending = !resuming || ev.time >= resume_time;
    const bool end_pending =
        !resuming || ev.time + ev.duration >= resume_time;
    switch (ev.kind) {
      case sim::FaultKind::kWorkerPause:
      case sim::FaultKind::kWorkerCrash:
        OSP_CHECK(ev.target < config_.num_workers,
                  "fault worker id out of range");
        if (start_pending) gated(ev);
        break;
      case sim::FaultKind::kPsCrash:
        OSP_CHECK(ev.target < ps_busy_until_.size(),
                  "fault ps id out of range");
        if (start_pending) gated(ev);
        break;
      case sim::FaultKind::kLinkDown:
        OSP_CHECK(ev.target < net.num_links(), "fault link id out of range");
        if (start_pending) gated(ev);
        if (end_pending) {
          sim_.schedule_at(ev.time + ev.duration, [this, ev] {
            maybe_checkpoint_now();
            if (halted_) return;
            cluster_->network().set_link_up(ev.target, true);
          });
        }
        break;
      case sim::FaultKind::kLinkDegrade:
        OSP_CHECK(ev.target < net.num_links(), "fault link id out of range");
        if (start_pending) gated(ev);
        if (end_pending) {
          sim_.schedule_at(ev.time + ev.duration, [this, ev] {
            maybe_checkpoint_now();
            if (halted_) return;
            cluster_->network().set_link_degradation(ev.target, 1.0, 0.0);
          });
        }
        break;
      case sim::FaultKind::kMessageDelay:
      case sim::FaultKind::kMessageDrop:
        OSP_CHECK(ev.target == sim::kAllLinks || ev.target < net.num_links(),
                  "injection link id out of range");
        // Windows are passive state, not events: always reinstall.
        net.add_injection_window(ev.time, ev.time + ev.duration, ev.target,
                                 ev.delay_s, ev.drop_prob);
        break;
    }
  }
}

void Engine::apply_fault(const sim::FaultEvent& ev) {
  switch (ev.kind) {
    case sim::FaultKind::kWorkerPause:
      pause_worker(ev.target, ev.duration);
      break;
    case sim::FaultKind::kWorkerCrash:
      crash_worker(ev.target, ev.duration);
      break;
    case sim::FaultKind::kPsCrash:
      crash_ps(ev.target, ev.duration);
      break;
    case sim::FaultKind::kLinkDown:
      ++fault_stats_.link_down_events;
      cluster_->network().set_link_up(ev.target, false);
      break;
    case sim::FaultKind::kLinkDegrade:
      ++fault_stats_.link_degrade_events;
      cluster_->network().set_link_degradation(ev.target,
                                               ev.bandwidth_factor,
                                               ev.extra_loss_rate);
      break;
    default:
      break;  // message windows are installed up-front, not event-driven
  }
}

void Engine::pause_worker(std::size_t w, double duration) {
  WorkerState& ws = workers_[w];
  if (ws.crashed || ws.done) return;
  ++fault_stats_.worker_pauses;
  fault_stats_.worker_downtime_s += duration;
  const double until = std::max(ws.pause_until, sim_.now() + duration);
  ws.pause_until = until;
  if (ws.compute_pending) {
    // Stretch the in-flight iteration by the pause window; the charged
    // (pure-compute) BCT is unchanged.
    const double remaining = ws.compute_end_time - sim_.now();
    schedule_compute_completion(w, until + remaining);
  }
  if (config_.record_trace) {
    trace_.add({sim_.now(), until, w, ws.iteration, TracePhase::kDowntime});
  }
}

void Engine::crash_worker(std::size_t w, double restart_after) {
  WorkerState& ws = workers_[w];
  if (ws.crashed || ws.done) return;
  ws.crashed = true;
  ws.restoring = false;
  ++ws.lives;  // voids its loopbacks still in flight
  ws.crashed_at = sim_.now();
  if (ws.parked && config_.record_trace && sim_.now() > ws.park_begin_time) {
    trace_.add({ws.park_begin_time, sim_.now(), w, ws.iteration,
                TracePhase::kParkWait});
  }
  ws.parked = false;  // a dead worker cannot hold the drain barrier
  ++fault_stats_.worker_crashes;
  --alive_count_;
  if (config_.record_trace) {
    trace_.add_counter(sim_.now(), "alive_workers",
                       static_cast<double>(num_alive()));
  }
  ++ws.compute_epoch;  // cancels the in-flight compute completion
  ws.compute_pending = false;
  cancel_math_job(w);  // its gradient will never be consumed
  for (sim::FlowId f : ws.flows) {
    cluster_->network().cancel_flow(f);
  }
  ws.flows.clear();
  sync_->on_worker_crashed(w);
  if (restart_after >= 0.0) {
    // Gated like fault-schedule events (see install_faults): a pending
    // drain snapshots before the restart runs, and the restart time is
    // checkpointed so a resumed run can re-schedule it.
    ws.restart_at = sim_.now() + restart_after;
    sim_.schedule(restart_after, [this, w] {
      maybe_checkpoint_now();
      if (halted_) return;
      restart_worker(w);
    });
  }
}

void Engine::restart_worker(std::size_t w) {
  WorkerState& ws = workers_[w];
  ws.restart_at = -1.0;
  if (!ws.crashed) return;
  fault_stats_.worker_downtime_s += sim_.now() - ws.crashed_at;
  ++fault_stats_.worker_restarts;
  if (config_.record_trace) {
    trace_.add({ws.crashed_at, sim_.now(), w, ws.iteration,
                TracePhase::kDowntime});
  }
  ws.crashed = false;
  ws.restoring = true;
  ++alive_count_;
  if (config_.record_trace) {
    trace_.add_counter(sim_.now(), "alive_workers",
                       static_cast<double>(num_alive()));
  }
  if (config_.checkpoint.restore_crashed_from_checkpoint && last_checkpoint_) {
    // Second recovery path: read the replica back from the latest run
    // checkpoint on local disk instead of pulling the full model from the
    // PS over the (possibly congested) network. The replica is as of the
    // checkpoint iteration; the sync model's ordinary catch-up machinery
    // brings the worker forward.
    ++fault_stats_.checkpoint_restores;
    auto ckpt = last_checkpoint_;
    const double rate =
        std::max(config_.checkpoint.restore_read_bytes_per_s, 1.0);
    loopback_transfer(model_bytes() / rate, [this, w, ckpt, life = ws.lives] {
      WorkerState& s = workers_[w];
      if (s.lives != life) return;  // re-crashed during the disk read
      s.restoring = false;
      s.params = ckpt->workers[w].params;
      sync_->on_worker_restarted(w);
      begin_compute(w);
    });
    return;
  }
  // Local state died with the process: re-pull the global model, then
  // rejoin the training loop (redoing the batch the crash cancelled).
  pull_restart_model(w);
}

void Engine::pull_restart_model(std::size_t w) {
  const bool dropped =
      worker_transfer(w, cluster_->route_from_ps(w), model_bytes(), [this, w] {
        WorkerState& s = workers_[w];
        s.restoring = false;
        s.params = global_params_;
        sync_->on_worker_restarted(w);
        begin_compute(w);
      });
  if (!dropped) return;
  // A drop window ate the pull (loopbacks never drop): ask again once it
  // would have landed, unless the worker crashed again meanwhile.
  const double retry_after = cluster_->network().ideal_transfer_time(
      cluster_->route_from_ps(w), model_bytes());
  sim_.schedule(retry_after, [this, w, life = workers_[w].lives] {
    if (workers_[w].lives == life) pull_restart_model(w);
  });
}

void Engine::crash_ps(std::size_t ps, double restart_after) {
  OSP_CHECK(ps < ps_busy_until_.size(), "ps id out of range");
  if (ps_crashed_[ps] != 0) return;
  ps_crashed_[ps] = 1;
  ps_crashed_at_[ps] = sim_.now();
  ++ps_crashed_count_;
  ++fault_stats_.ps_crashes;
  // The serial update queue dies with the host: bump the epoch so every
  // already-scheduled ps_submit completion no-ops, and clear the busy
  // horizon so the drain barrier does not wait on phantom work.
  ++ps_epoch_[ps];
  ps_busy_until_[ps] = sim_.now();
  if (config_.record_trace) {
    trace_.add_counter(
        sim_.now(), "alive_ps",
        static_cast<double>(ps_crashed_.size() - ps_crashed_count_));
  }
  sync_->on_ps_crashed(ps);
  if (restart_after >= 0.0) {
    // Gated like fault-schedule events (see install_faults); the restart
    // time is checkpointed so a resumed run can re-schedule it.
    ps_restart_at_[ps] = sim_.now() + restart_after;
    sim_.schedule(restart_after, [this, ps] {
      maybe_checkpoint_now();
      if (halted_) return;
      restart_ps(ps);
    });
  }
}

void Engine::restart_ps(std::size_t ps) {
  ps_restart_at_[ps] = -1.0;
  if (ps_crashed_[ps] == 0) return;
  ++fault_stats_.ps_restarts;
  ps_crashed_[ps] = 0;
  --ps_crashed_count_;
  if (config_.record_trace) {
    trace_.add_counter(
        sim_.now(), "alive_ps",
        static_cast<double>(ps_crashed_.size() - ps_crashed_count_));
  }
  sync_->on_ps_restarted(ps);
}

bool Engine::should_park(std::size_t w) const {
  return next_checkpoint_iter_ > 0 && !halted_ &&
         workers_[w].iteration >= next_checkpoint_iter_;
}

bool Engine::all_parked() const {
  return std::all_of(workers_.begin(), workers_.end(),
                     [](const WorkerState& ws) {
                       return ws.parked || ws.done || ws.crashed;
                     });
}

bool Engine::quiescent() const {
  if (cluster_->network().active_flows() != 0) return false;
  if (loopback_pending_ != 0) return false;
  for (double t : ps_busy_until_) {
    if (t > sim_.now()) return false;
  }
  for (const WorkerState& ws : workers_) {
    if (!ws.flows.empty()) return false;
  }
  return sync_->drained();
}

bool Engine::maybe_checkpoint_now() {
  if (!drain_pending_ || halted_) return false;
  if (!all_parked() || !quiescent()) return false;
  take_checkpoint();
  return true;
}

void Engine::take_checkpoint() {
  // The checkpoint carries the curve: land the in-flight eval first.
  join_evals();
  ++checkpoints_taken_;
  last_checkpoint_ =
      std::make_shared<const RunCheckpoint>(make_checkpoint());
  if (!config_.checkpoint.path.empty()) {
    last_checkpoint_->save(config_.checkpoint.path);
  }
  drain_pending_ = false;
  next_checkpoint_iter_ += config_.checkpoint.every_iters;
  if (config_.checkpoint.halt_after_checkpoint) {
    // Model a preempted job: the run stops here; a resumed run picks up
    // from the file just written.
    halted_ = true;
    sim_.clear();
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      WorkerState& ws = workers_[w];
      if (ws.parked && config_.record_trace &&
          sim_.now() > ws.park_begin_time) {
        trace_.add({ws.park_begin_time, sim_.now(), w, ws.iteration,
                    TracePhase::kParkWait});
      }
      ws.parked = false;
    }
    return;
  }
  release_parked();
}

void Engine::release_parked() {
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    WorkerState& ws = workers_[w];
    if (!ws.parked) continue;
    if (config_.record_trace && sim_.now() > ws.park_begin_time) {
      trace_.add({ws.park_begin_time, sim_.now(), w, ws.iteration,
                  TracePhase::kParkWait});
    }
    ws.parked = false;
    begin_compute(w);
  }
}

RunCheckpoint Engine::make_checkpoint() const {
  OSP_CHECK(eval_job_ == nullptr, "checkpoint with an eval in flight");
  RunCheckpoint c;
  c.workload_name = spec_->name;
  c.sync_name = sync_->name();
  c.num_workers = config_.num_workers;
  c.max_epochs = config_.max_epochs;
  c.seed = config_.seed;
  c.num_ps = ps_busy_until_.size();
  c.total_params = flat_->total_params();
  c.num_blocks = flat_->num_blocks();
  c.batches_per_epoch = workers_[0].loader->batches_per_epoch();
  c.momentum = config_.momentum;

  c.sim_time = sim_.now();
  c.checkpoint_iter = next_checkpoint_iter_;
  c.checkpoints_taken = checkpoints_taken_;

  c.global_params = global_params_;
  c.optimizer_velocity.assign(optimizer_->velocity().begin(),
                              optimizer_->velocity().end());
  c.samples_processed = samples_processed_;
  c.next_eval_at_samples = next_eval_at_samples_;
  c.epoch_done_counts = epoch_done_counts_;
  c.epoch_loss_sums = epoch_loss_sums_;
  c.ps_busy_until = ps_busy_until_;
  c.ps_crashed.assign(ps_crashed_.begin(), ps_crashed_.end());
  c.ps_crashed_at = ps_crashed_at_;
  c.ps_restart_at = ps_restart_at_;
  c.fault_stats = fault_stats_;

  c.bct = metrics_.bct();
  c.bst = metrics_.bst();
  c.bst_samples = metrics_.bst_samples();
  c.curve = metrics_.curve();
  c.epoch_losses = metrics_.epoch_losses();

  {
    util::serde::Writer w;
    cluster_->network().save_state(w);
    c.network_state = w.take();
  }
  c.workers.reserve(workers_.size());
  for (const WorkerState& ws : workers_) {
    WorkerCheckpoint wc;
    wc.params = ws.params;
    wc.rng = ws.rng.state();
    wc.iteration = ws.iteration;
    wc.epoch = ws.epoch;
    wc.epoch_loss_sum = ws.epoch_loss_sum;
    wc.epoch_loss_count = ws.epoch_loss_count;
    wc.done = ws.done;
    wc.parked = ws.parked;
    wc.crashed = ws.crashed;
    wc.crashed_at = ws.crashed_at;
    wc.pause_until = ws.pause_until;
    wc.restart_at = ws.restart_at;
    c.workers.push_back(std::move(wc));
  }
  {
    util::serde::Writer w;
    sync_->save_state(w);
    c.sync_state = w.take();
  }
  return c;
}

void Engine::restore_checkpoint(const RunCheckpoint& ckpt) {
  OSP_CHECK(ckpt.workload_name == spec_->name,
            "checkpoint is for a different workload");
  OSP_CHECK(ckpt.sync_name == sync_->name(),
            "checkpoint is for a different sync model");
  OSP_CHECK(ckpt.num_workers == config_.num_workers,
            "checkpoint worker count mismatch");
  OSP_CHECK(ckpt.max_epochs == config_.max_epochs,
            "checkpoint epoch budget mismatch");
  OSP_CHECK(ckpt.seed == config_.seed, "checkpoint seed mismatch");
  OSP_CHECK(ckpt.num_ps == ps_busy_until_.size(),
            "checkpoint PS count mismatch");
  OSP_CHECK(ckpt.total_params == flat_->total_params(),
            "checkpoint model size mismatch");
  OSP_CHECK(ckpt.num_blocks == flat_->num_blocks(),
            "checkpoint block layout mismatch");
  OSP_CHECK(ckpt.batches_per_epoch == workers_[0].loader->batches_per_epoch(),
            "checkpoint dataset sharding mismatch");
  OSP_CHECK(ckpt.momentum == config_.momentum,
            "checkpoint optimizer config mismatch");
  OSP_CHECK(ckpt.global_params.size() == global_params_.size(),
            "checkpoint parameter vector mismatch");

  global_params_ = ckpt.global_params;
  optimizer_->set_velocity(ckpt.optimizer_velocity);
  samples_processed_ = ckpt.samples_processed;
  next_eval_at_samples_ = ckpt.next_eval_at_samples;
  epoch_done_counts_ = ckpt.epoch_done_counts;
  epoch_loss_sums_ = ckpt.epoch_loss_sums;
  ps_busy_until_ = ckpt.ps_busy_until;
  OSP_CHECK(ckpt.ps_crashed.size() == ps_crashed_.size(),
            "checkpoint PS fault state mismatch");
  ps_crashed_.assign(ckpt.ps_crashed.begin(), ckpt.ps_crashed.end());
  ps_crashed_at_ = ckpt.ps_crashed_at;
  ps_restart_at_ = ckpt.ps_restart_at;
  ps_crashed_count_ = static_cast<std::size_t>(
      std::count(ps_crashed_.begin(), ps_crashed_.end(),
                 std::uint8_t{1}));
  fault_stats_ = ckpt.fault_stats;
  metrics_.restore(ckpt.bct, ckpt.bst, ckpt.bst_samples, ckpt.curve,
                   ckpt.epoch_losses);

  {
    util::serde::Reader r(ckpt.network_state);
    cluster_->network().load_state(r);
    r.expect_done();
  }
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    WorkerState& ws = workers_[w];
    const WorkerCheckpoint& wc = ckpt.workers[w];
    OSP_CHECK(wc.params.size() == ws.params.size(),
              "checkpoint replica size mismatch");
    ws.params = wc.params;
    ws.rng.set_state(wc.rng);
    ws.iteration = wc.iteration;
    ws.epoch = wc.epoch;
    ws.epoch_loss_sum = wc.epoch_loss_sum;
    ws.epoch_loss_count = wc.epoch_loss_count;
    ws.done = wc.done;
    ws.parked = wc.parked;
    ws.crashed = wc.crashed;
    ws.crashed_at = wc.crashed_at;
    ws.pause_until = wc.pause_until;
    ws.restart_at = wc.restart_at;
  }
  alive_count_ = static_cast<std::size_t>(
      std::count_if(workers_.begin(), workers_.end(),
                    [](const WorkerState& ws) { return !ws.crashed; }));
  {
    util::serde::Reader r(ckpt.sync_state);
    sync_->load_state(r);
    r.expect_done();
  }

  checkpoints_taken_ = ckpt.checkpoints_taken;
  last_checkpoint_ = std::make_shared<const RunCheckpoint>(ckpt);
  next_checkpoint_iter_ =
      config_.checkpoint.every_iters > 0
          ? static_cast<std::size_t>(ckpt.checkpoint_iter) +
                config_.checkpoint.every_iters
          : 0;
  stopping_ = std::all_of(workers_.begin(), workers_.end(),
                          [](const WorkerState& ws) { return ws.done; });
}

void Engine::maybe_evaluate(bool force) {
  if (force) {
    evaluate_now();
    return;
  }
  if (samples_processed_ < next_eval_at_samples_) return;
  while (next_eval_at_samples_ <= samples_processed_) {
    next_eval_at_samples_ += static_cast<double>(eval_stride_);
  }
  evaluate_now();
}

void Engine::evaluate_now() {
  // At most one eval is in flight; the previous one started an eval stride
  // ago, so this join rarely waits.
  join_evals();
  // Evaluate the *global* (PS) parameters — the model a practitioner would
  // checkpoint.
  const data::Dataset& ds = *spec_->eval;
  std::size_t limit = ds.size();
  if (config_.eval_max_examples > 0) {
    limit = std::min(limit, config_.eval_max_examples);
  }
  const std::size_t batches = limit / spec_->batch_size;
  OSP_CHECK(batches > 0, "eval set smaller than one batch");
  auto job = std::make_shared<EvalJob>();
  job->dataset = &ds;
  job->batch_size = spec_->batch_size;
  job->is_qa = spec_->is_qa;
  job->time_s = sim_.now();
  job->samples = samples_processed_;
  job->metric.assign(batches, 0.0);
  job->loss.assign(batches, 0.0);
  eval_job_ = job;
  if (!async_math_) {
    // Serial path: no pool to overlap with, so evaluate global_params_ in
    // place on scratch_model_ (no snapshot copy) and record at once.
    evaluate_batches(scratch_model_, *flat_, global_params_, *job, 0,
                     batches);
    join_evals();
    return;
  }
  // Async path: nothing reads the result before the next join point, so
  // evaluate a snapshot on the replicas, one contiguous batch range per
  // pool thread.
  job->params = global_params_;
  const std::size_t ranges = std::min(batches, pool_->size());
  job->handles.reserve(ranges);
  for (std::size_t r = 0; r < ranges; ++r) {
    const std::size_t begin = r * batches / ranges;
    const std::size_t end = (r + 1) * batches / ranges;
    job->handles.push_back(pool_->submit_task(
        [this, job, begin, end] { replicas_->evaluate(*job, begin, end); }));
  }
}

void Engine::join_evals() {
  if (eval_job_ == nullptr) return;
  // Join every range before letting go of the job: if one threw, ~Engine
  // still finds the rest and joins them before the replicas die.
  for (util::TaskHandle& h : eval_job_->handles) h.join();
  const std::shared_ptr<EvalJob> job = std::move(eval_job_);
  // Sum in batch order: the float order of a serial loop over the batches,
  // whichever threads computed the slots.
  double metric_sum = 0.0;
  double loss_sum = 0.0;
  for (std::size_t i = 0; i < job->metric.size(); ++i) {
    metric_sum += job->metric[i];
    loss_sum += job->loss[i];
  }
  const auto batches = static_cast<double>(job->metric.size());
  EvalPoint point;
  point.time_s = job->time_s;
  point.samples = job->samples;
  point.metric = metric_sum / batches;
  point.loss = loss_sum / batches;
  metrics_.record_eval(point);
}

}  // namespace osp::runtime
