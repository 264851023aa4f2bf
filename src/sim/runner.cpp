#include "sim/runner.hpp"

#include <cstdlib>
#include <cstring>

#include "common/fault.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "common/str.hpp"

namespace snug::sim {

double RunResult::throughput() const {
  double sum = 0.0;
  for (const double v : ipc) sum += v;
  return sum;
}

EvalCache::EvalCache(std::string dir)
    : store_(std::move(dir), BlobFormat{kMagic, kVersion, ".snugc",
                                        sizeof(double), kMaxEntries}) {}

bool EvalCache::load(const std::string& key, std::uint64_t fingerprint,
                     std::vector<double>& ipc) const {
  std::vector<std::byte> payload;
  if (!store_.tryGet(key, fingerprint, payload)) return false;
  ipc.resize(payload.size() / sizeof(double));
  std::memcpy(ipc.data(), payload.data(), payload.size());
  return true;
}

void EvalCache::store(const std::string& key, std::uint64_t fingerprint,
                      const std::vector<double>& ipc) const {
  store_.insert(key, fingerprint, ipc.data(), ipc.size());
}

BlobStore::ScanCounts EvalCache::scan(
    const std::function<void(std::uint64_t, const std::vector<double>&)>& visit)
    const {
  return store_.scan(
      [&](std::uint64_t fp, const std::byte* payload, std::uint32_t count) {
        std::vector<double> ipc(count);
        std::memcpy(ipc.data(), payload, count * sizeof(double));
        visit(fp, ipc);
      });
}

std::string default_cache_dir() {
  if (const char* env = std::getenv("SNUG_CACHE_DIR")) return env;
  return ".snug_eval_cache";
}

std::uint64_t run_fingerprint(const SystemConfig& cfg, const RunScale& scale,
                              const trace::WorkloadCombo& combo,
                              const schemes::SchemeSpec& spec) {
  return run_fingerprint(config_fingerprint(cfg, scale), combo, spec);
}

std::uint64_t run_fingerprint(std::uint64_t config_fp,
                              const trace::WorkloadCombo& combo,
                              const schemes::SchemeSpec& spec) {
  std::string tag = combo.name;
  for (const auto& bench : combo.benchmarks) {
    tag += '|';
    tag += bench;
  }
  tag += '|';
  tag += spec.id();
  return Rng::derive_seed(tag, config_fp, EvalCache::kVersion);
}

ExperimentRunner::ExperimentRunner(const SystemConfig& cfg,
                                   const RunScale& scale,
                                   std::string cache_dir,
                                   std::string warm_bank_dir)
    : cfg_(cfg),
      scale_(scale),
      cache_(std::move(cache_dir)),
      warm_bank_(scale.warmup_mode == WarmupMode::kFunctional
                     ? std::move(warm_bank_dir)
                     : std::string()) {}

ExperimentRunner::ExperimentRunner(const ScenarioSpec& scenario,
                                   std::string cache_dir,
                                   std::string warm_bank_dir)
    : ExperimentRunner(scenario.system_config(), scenario.scale,
                       std::move(cache_dir), std::move(warm_bank_dir)) {}

std::string ExperimentRunner::cache_key(
    const trace::WorkloadCombo& combo,
    const schemes::SchemeSpec& spec) const {
  return cache_key(combo, spec, run_fingerprint(cfg_, scale_, combo, spec));
}

std::string ExperimentRunner::cache_key(const trace::WorkloadCombo& combo,
                                        const schemes::SchemeSpec& spec,
                                        std::uint64_t fingerprint) const {
  return strf("%s__%s__%016llx", combo.name.c_str(), spec.id().c_str(),
              static_cast<unsigned long long>(fingerprint));
}

std::string ExperimentRunner::warm_key(
    const trace::WorkloadCombo& combo,
    const schemes::SchemeSpec& spec) const {
  return warm_key(combo, spec, warm_fingerprint(cfg_, scale_, combo, spec));
}

std::string ExperimentRunner::warm_key(const trace::WorkloadCombo& combo,
                                       const schemes::SchemeSpec& spec,
                                       std::uint64_t fingerprint) const {
  return strf("warm__%s__%s__%016llx", combo.name.c_str(),
              spec.id().c_str(),
              static_cast<unsigned long long>(fingerprint));
}

bool ExperimentRunner::warm_state_banked(
    const trace::WorkloadCombo& combo,
    const schemes::SchemeSpec& spec) const {
  if (scale_.warmup_mode != WarmupMode::kFunctional ||
      !warm_bank_.enabled()) {
    return false;
  }
  const std::uint64_t wfp = warm_fingerprint(cfg_, scale_, combo, spec);
  return warm_bank_.contains(warm_key(combo, spec, wfp), wfp);
}

RunResult ExperimentRunner::run(const trace::WorkloadCombo& combo,
                                const schemes::SchemeSpec& spec) {
  const std::uint64_t fp = run_fingerprint(cfg_, scale_, combo, spec);
  const std::string key = cache_key(combo, spec, fp);
  RunResult result;
  if (cache_.load(key, fp, result.ipc)) {
    result.cached = true;
    if (on_progress) {
      const std::lock_guard<std::mutex> lock(progress_mu_);
      on_progress(combo.name, spec.id(), true);
    }
    return result;
  }
  if (on_progress) {
    const std::lock_guard<std::mutex> lock(progress_mu_);
    on_progress(combo.name, spec.id(), false);
  }
  // Transient-fault point for the simulation cell itself (fail@task /
  // stall@task clauses); the campaign engine's backoff loop retries.
  fault::maybe_fail_task(combo.name + "/" + spec.id());

  CmpSystem system(cfg_, spec, combo, scale_);
  if (scale_.warmup_mode == WarmupMode::kFunctional) {
    // Functional fast-forward, with the warm-up prefix banked: the first
    // point of a (scenario, workload, warmup, scheme) prefix pays the
    // functional warm-up and serializes the result; every later point
    // sharing the prefix (e.g. differing only in measurement length)
    // restores it.  Restore + measure is bit-identical to warm + measure
    // (tests/sim/warm_state_test.cpp), so the two paths are
    // interchangeable.
    const std::uint64_t wfp = warm_fingerprint(cfg_, scale_, combo, spec);
    const std::string wkey = warm_key(combo, spec, wfp);
    std::vector<std::byte> blob;
    if (warm_bank_.load(wkey, wfp, blob)) {
      system.load_warm_state(blob);
      result.warm_banked = true;
    } else {
      system.warm_functional(scale_.warmup_cycles);
      warm_bank_.store(wkey, wfp, system.save_warm_state());
    }
  } else {
    system.run(scale_.warmup_cycles);
  }
  system.begin_measurement();
  system.run(scale_.measure_cycles);
  result.ipc = system.measured_ipc();
  for (const double v : result.ipc) SNUG_ENSURE(v > 0.0);

  cache_.store(key, fp, result.ipc);
  return result;
}

void ExperimentRunner::seed_cache(const trace::WorkloadCombo& combo,
                                  const schemes::SchemeSpec& spec,
                                  const std::vector<double>& ipc) {
  const std::uint64_t fp = run_fingerprint(cfg_, scale_, combo, spec);
  cache_.store(cache_key(combo, spec, fp), fp, ipc);
}

bool ExperimentRunner::cached_ipc(const trace::WorkloadCombo& combo,
                                  const schemes::SchemeSpec& spec,
                                  std::vector<double>& ipc) const {
  const std::uint64_t fp = run_fingerprint(cfg_, scale_, combo, spec);
  return cache_.load(cache_key(combo, spec, fp), fp, ipc);
}

}  // namespace snug::sim
