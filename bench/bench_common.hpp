// Shared configuration and helpers for the figure/table benches.
//
// Every bench prints an aligned text table with the same rows/series the
// paper reports, and writes a CSV next to the binary (bench_out/) for
// plotting. Epoch counts and the repetition seed can be overridden through
// environment variables so a quick smoke pass is possible:
//   OSP_BENCH_EPOCHS=4 ./build/bench/bench_fig6_metrics
#pragma once

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/osp_sync.hpp"
#include "models/zoo.hpp"
#include "runtime/engine.hpp"
#include "runtime/telemetry.hpp"
#include "sync/async.hpp"
#include "sync/bsp.hpp"
#include "sync/r2sp.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

namespace osp::bench {

inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const long parsed = std::strtol(value, nullptr, 10);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

/// Boolean env toggle: unset, empty, or "0" is off; anything else is on.
inline bool env_flag(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && value[0] != '\0' &&
         std::string_view(value) != "0";
}

/// The testbed configuration of §5.1.1: 8 workers + standalone PS behind a
/// 10 Gbit/s ToR, Tesla T4-class compute, mild compute jitter.
inline runtime::EngineConfig paper_config(
    std::size_t workers = 8,
    std::size_t epochs = env_size("OSP_BENCH_EPOCHS", 30)) {
  runtime::EngineConfig cfg;
  cfg.num_workers = workers;
  cfg.max_epochs = epochs;
  cfg.seed = 20230807;  // ICPP'23 conference date
  cfg.straggler_jitter = 0.05;
  // Opt-in observability: OSP_TRACE=1 makes every bench run record spans,
  // flows, counters, and per-round sync telemetry (pure observation — the
  // simulated numerics and timings are unchanged).
  if (env_flag("OSP_TRACE")) {
    cfg.record_trace = true;
    cfg.record_telemetry = true;
  }
  return cfg;
}

struct NamedSync {
  std::string label;
  std::function<std::unique_ptr<runtime::SyncModel>()> make;
};

/// The paper's comparison set in its presentation order (§5.1.3).
inline std::vector<NamedSync> paper_baselines() {
  return {
      {"ASP", [] { return std::make_unique<sync::AsyncSync>(); }},
      {"BSP", [] { return std::make_unique<sync::BspSync>(); }},
      {"R2SP", [] { return std::make_unique<sync::R2spSync>(); }},
      {"OSP", [] { return std::make_unique<core::OspSync>(); }},
  };
}

inline runtime::RunResult run_one(const runtime::WorkloadSpec& spec,
                                  runtime::SyncModel& sync,
                                  const runtime::EngineConfig& cfg) {
  runtime::Engine engine(spec, cfg, sync);
  return engine.run();
}

/// Like run_one, but when tracing is on also drops the run's observability
/// artifacts under bench_out/: <prefix>_trace.json (Chrome tracing) and
/// <prefix>_telemetry.jsonl (one sync round per line).
inline runtime::RunResult run_one_with_artifacts(
    const runtime::WorkloadSpec& spec, runtime::SyncModel& sync,
    const runtime::EngineConfig& cfg, const std::string& prefix) {
  runtime::Engine engine(spec, cfg, sync);
  runtime::RunResult r = engine.run();
  if (cfg.record_trace && !prefix.empty()) {
    std::error_code ec;
    std::filesystem::create_directories("bench_out", ec);
    if (!ec) {
      engine.trace().write_chrome_json("bench_out/" + prefix + "_trace.json");
      runtime::write_telemetry_jsonl(
          "bench_out/" + prefix + "_telemetry.jsonl", r.rounds);
    }
  }
  return r;
}

/// Lower-case the label and replace path-hostile characters so it can name
/// an artifact file ("BSP(x2PS)" -> "bsp_x2ps_").
inline std::string artifact_prefix(const std::string& label) {
  std::string out;
  out.reserve(label.size());
  for (char c : label) {
    if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      out.push_back(c);
    } else if (c >= 'A' && c <= 'Z') {
      out.push_back(static_cast<char>(c - 'A' + 'a'));
    } else {
      out.push_back('_');
    }
  }
  return out;
}

// ---- parallel multi-run harness -----------------------------------------

/// One simulation job's outcome plus host wall-clock seconds and an
/// optional sync-specific extra value (e.g. OSP's U_max) the job chooses
/// to surface.
struct TimedResult {
  runtime::RunResult result;
  double wall_s = 0.0;
  double aux = 0.0;
};

/// A self-contained simulation job: constructs its own sync model and
/// engine so it can run concurrently with its siblings.
using BenchJob = std::function<TimedResult()>;

/// Build the common job shape: run `spec` under the sync model `make()`
/// produces with `cfg`, timing the host wall clock. `aux_of` (optional)
/// extracts the extra value from the sync model after the run.
template <typename MakeSync,
          typename AuxOf = double (*)(const runtime::SyncModel&)>
BenchJob make_job(
    const runtime::WorkloadSpec& spec, MakeSync make,
    runtime::EngineConfig cfg,
    AuxOf aux_of = [](const runtime::SyncModel&) { return 0.0; }) {
  return [&spec, make = std::move(make), cfg, aux_of]() {
    const auto t0 = std::chrono::steady_clock::now();
    auto sync = make();
    TimedResult out;
    out.result = run_one(spec, *sync, cfg);
    out.aux = aux_of(*sync);
    out.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    return out;
  };
}

/// Fan the jobs out across the global thread pool, returning results in
/// job order. Every job owns its Simulator/Engine/sync state, so each
/// result is bit-identical to what a serial run would produce — only the
/// host wall-clock differs.
inline std::vector<TimedResult> run_jobs_parallel(
    const std::vector<BenchJob>& jobs) {
  return util::parallel_map(jobs.size(),
                            [&jobs](std::size_t i) { return jobs[i](); });
}

/// Print the table and also drop a CSV under bench_out/.
inline void emit(const util::Table& table, const std::string& name) {
  table.print(std::cout);
  std::error_code ec;
  std::filesystem::create_directories("bench_out", ec);
  if (!ec) {
    const std::string path = "bench_out/" + name + ".csv";
    if (table.write_csv(path)) {
      std::cout << "(csv: " << path << ")\n";
    }
  }
  std::cout << std::endl;
}

/// The paper reports BERT throughput as QAs per 10 seconds (§5.2).
inline double display_throughput(const runtime::WorkloadSpec& spec,
                                 double samples_per_s) {
  return spec.is_qa ? samples_per_s * 10.0 : samples_per_s;
}

inline std::string throughput_unit(const runtime::WorkloadSpec& spec) {
  return spec.is_qa ? "QAs/10s" : "images/s";
}

}  // namespace osp::bench
