#include "sim/runner.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/crc32.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "common/str.hpp"
#include "sim/store_recovery.hpp"

namespace snug::sim {
namespace {

// Entry files are host-endian; the magic word doubles as an endianness
// check because a byte-swapped header can never match.
struct CacheHeader {
  std::uint32_t magic = EvalCache::kMagic;
  std::uint32_t version = EvalCache::kVersion;
  std::uint64_t fingerprint = 0;
  std::uint32_t count = 0;
  std::uint32_t payload_crc = 0;  ///< CRC-32C of the f64 payload (v4+)
};
static_assert(sizeof(CacheHeader) == 24, "header layout must be packed");

}  // namespace

double RunResult::throughput() const {
  double sum = 0.0;
  for (const double v : ipc) sum += v;
  return sum;
}

EvalCache::EvalCache(std::string dir)
    : env_(&fault::env()), dir_(std::move(dir)) {
  if (!dir_.empty()) {
    if (!env_->create_directories(dir_)) {
      dir_.clear();  // fall back to uncached operation
      return;
    }
    reaped_temps_.store(reap_orphaned_temps(*env_, dir_),
                        std::memory_order_relaxed);
    quarantine_trimmed_.store(bound_quarantine(*env_, dir_),
                              std::memory_order_relaxed);
  }
}

std::string EvalCache::entry_path(const std::string& key) const {
  return dir_ + "/" + key + ".snugc";
}

bool EvalCache::load(const std::string& key, std::uint64_t fingerprint,
                     std::vector<double>& ipc) const {
  if (dir_.empty()) return false;
  std::vector<std::byte> raw;
  if (!env_->read_file(entry_path(key), raw)) return false;

  // Structural damage — a file that can never be a valid entry of any
  // version — is quarantined; *stale* entries (wrong version or
  // fingerprint: valid files answering a different question) stay put.
  const auto corrupt = [&] {
    if (quarantine_entry(
            *env_, dir_, key + ".snugc",
            store_seq_.fetch_add(1, std::memory_order_relaxed))) {
      quarantined_.fetch_add(1, std::memory_order_relaxed);
    }
    return false;
  };

  if (raw.size() < sizeof(CacheHeader)) return corrupt();
  CacheHeader hdr;
  std::memcpy(&hdr, raw.data(), sizeof hdr);
  if (hdr.magic != kMagic) return corrupt();
  if (hdr.version != kVersion || hdr.fingerprint != fingerprint) {
    return false;  // stale, not corrupt
  }
  if (hdr.count == 0 || hdr.count > kMaxEntries) return corrupt();
  const std::size_t payload_bytes = hdr.count * sizeof(double);
  if (raw.size() != sizeof hdr + payload_bytes) {
    return corrupt();  // truncated (short write) or trailing garbage
  }
  if (crc32c(raw.data() + sizeof hdr, payload_bytes) != hdr.payload_crc) {
    return corrupt();  // bit rot / torn payload
  }

  ipc.resize(hdr.count);
  std::memcpy(ipc.data(), raw.data() + sizeof hdr, payload_bytes);
  return true;
}

bool EvalCache::contains(const std::string& key,
                         std::uint64_t fingerprint) const {
  if (dir_.empty()) return false;
  std::vector<std::byte> raw;
  if (!env_->read_file(entry_path(key), raw, sizeof(CacheHeader))) {
    return false;
  }
  if (raw.size() < sizeof(CacheHeader)) return false;
  CacheHeader hdr;
  std::memcpy(&hdr, raw.data(), sizeof hdr);
  // Header-only probe: no CRC/size verdict and no quarantine — a later
  // full load makes the structural call (same contract as
  // WarmStateBank::contains).
  return hdr.magic == kMagic && hdr.version == kVersion &&
         hdr.fingerprint == fingerprint && hdr.count > 0 &&
         hdr.count <= kMaxEntries;
}

std::size_t EvalCache::refresh() const {
  if (dir_.empty()) return 0;
  const std::lock_guard<std::mutex> lock(refresh_mu_);
  // Epoch short-circuit: every publish renames into the directory and
  // perturbs its (mtime_ns, size) signature, so an unchanged-and-settled
  // signature means the last count is still exact — no listing needed
  // (racy-mtime rule: common/fsepoch.hpp).
  const DirEpoch now = dir_epoch(dir_);
  if (refresh_primed_ && epoch_unchanged(now, refresh_epoch_)) {
    return refresh_count_;
  }
  std::size_t published = 0;
  for (const std::string& name : env_->list_dir(dir_)) {
    // Count only published entries: temps are in-flight stores and
    // anything else (journals, notes) is not ours to report.
    if (name.size() > 6 && name.rfind(".snugc") == name.size() - 6) {
      ++published;
    }
  }
  refresh_primed_ = true;
  refresh_epoch_ = now;
  refresh_count_ = published;
  return published;
}

void EvalCache::store(const std::string& key, std::uint64_t fingerprint,
                      const std::vector<double>& ipc) const {
  if (dir_.empty() || ipc.empty() || ipc.size() > kMaxEntries) return;

  CacheHeader hdr;
  hdr.fingerprint = fingerprint;
  hdr.count = static_cast<std::uint32_t>(ipc.size());
  hdr.payload_crc = crc32c(ipc.data(), ipc.size() * sizeof(double));
  std::vector<std::byte> raw(sizeof hdr + ipc.size() * sizeof(double));
  std::memcpy(raw.data(), &hdr, sizeof hdr);
  std::memcpy(raw.data() + sizeof hdr, ipc.data(),
              ipc.size() * sizeof(double));

  // Unique temp name per (process, store) so concurrent writers — threads
  // of this process or entirely separate processes — never collide; the
  // final rename is atomic within the cache directory.
  const std::string tmp =
      strf("%s/%s.tmp.%ld.%llu", dir_.c_str(), key.c_str(),
           static_cast<long>(::getpid()),
           static_cast<unsigned long long>(
               store_seq_.fetch_add(1, std::memory_order_relaxed)));
  if (!env_->write_file(tmp, raw.data(), raw.size())) {
    env_->remove(tmp);  // ENOSPC-style partial file: clean up
    return;
  }
  if (!env_->rename(tmp, entry_path(key))) {
    env_->remove(tmp);  // cache stays best-effort
  }
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

ExperimentRunner::ComboResults ExperimentRunner::run_combo_grid(
    const trace::WorkloadCombo& combo) {
  ComboResults out;
  for (const auto& spec : schemes::paper_scheme_grid()) {
    out[spec.id()] = run(combo, spec);
  }
  return out;
}

}  // namespace snug::sim
