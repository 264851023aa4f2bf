// ExperimentRunner — executes (workload combo x scheme) timing runs and
// caches per-core IPCs on disk, so the three figure benches (9, 10, 11)
// share one simulation campaign instead of repeating it.
//
// The runner is concurrency-safe: any number of threads may call run()
// on the same instance (the campaign engine in sim/campaign.hpp does
// exactly that), and concurrent processes may share one cache directory
// (sim/blob_store.hpp publishes atomically and validates every load).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/blob_store.hpp"
#include "sim/config.hpp"
#include "sim/scenario.hpp"
#include "sim/system.hpp"
#include "sim/warm_state.hpp"

namespace snug::sim {

struct RunResult {
  std::vector<double> ipc;  ///< per core, measurement window
  bool cached = false;      ///< true when served from the eval cache
  /// True when the warm-up phase was restored from the warm-state bank
  /// instead of simulated (functional mode only; always false when the
  /// whole result came from the eval cache).
  bool warm_banked = false;
  /// True when the result was replayed from a campaign journal
  /// (sim/journal.hpp) rather than simulated or cache-loaded this run.
  bool replayed = false;

  [[nodiscard]] double throughput() const;
};

/// The eval cache: per-core IPCs, one BlobStore entry (`<key>.snugc`)
/// per (combo, scheme, config, scale) fingerprint.  The store owns the
/// format, validation, quarantine and atomic publish
/// (sim/blob_store.hpp); this view fixes the magic, version, suffix and
/// count bound and types the payload as f64 per core.
class EvalCache {
 public:
  static constexpr std::uint32_t kMagic = 0x47554E53;  // "SNUG"
  /// v2: the scenario layer — run fingerprints now cover the full
  /// topology (L1I/shared-L2 geometry, core pipeline, WBB, latency and
  /// ablation knobs) and generated-mix parameters.  Pre-scenario v1
  /// entries fingerprinted only a quad-core-era subset, so they are
  /// rejected wholesale by the version check.
  /// v3: the alias-method Zipf sampler consumes RNG draws differently
  /// than the CDF sampler, so every simulated IPC legitimately changed
  /// (statistically equivalent, bit-level different); v2 entries would
  /// silently resurrect pre-alias results and are rejected wholesale.
  /// v4: the reserved header word became the payload CRC-32C.  A v3
  /// entry with a non-empty payload would always fail the CRC check and
  /// land in quarantine even though it is merely stale, so v3 is
  /// rejected by version (and left in place) instead.
  static constexpr std::uint32_t kVersion = 4;
  /// Hard upper bound on plausible per-core entries; anything larger is
  /// treated as corruption.  Also bounds campaign-journal records.
  static constexpr std::uint32_t kMaxEntries = 4096;

  using Recovery = BlobStore::Recovery;

  /// `dir` is created on demand; pass "" to disable caching.
  explicit EvalCache(std::string dir);

  [[nodiscard]] bool load(const std::string& key, std::uint64_t fingerprint,
                          std::vector<double>& ipc) const;
  void store(const std::string& key, std::uint64_t fingerprint,
             const std::vector<double>& ipc) const;
  [[nodiscard]] bool enabled() const noexcept { return store_.enabled(); }

  /// Hands every valid published entry to `visit` (fingerprint, IPCs)
  /// in one directory pass — the AnswerIndex's build at open.
  BlobStore::ScanCounts scan(
      const std::function<void(std::uint64_t, const std::vector<double>&)>&
          visit) const;

  [[nodiscard]] Recovery recovery() const noexcept {
    return store_.recovery();
  }

 private:
  BlobStore store_;
};

/// Default cache directory: $SNUG_CACHE_DIR or .snug_eval_cache under the
/// current working directory.
[[nodiscard]] std::string default_cache_dir();

/// Fingerprint of one cache entry: covers the system config, run scale,
/// workload combo (name and per-core benchmarks) and scheme spec.  Stable
/// across runs and processes; changes whenever any input that affects the
/// simulated IPCs changes.
[[nodiscard]] std::uint64_t run_fingerprint(const SystemConfig& cfg,
                                            const RunScale& scale,
                                            const trace::WorkloadCombo& combo,
                                            const schemes::SchemeSpec& spec);

/// The same fingerprint from a precomputed config_fingerprint(cfg,
/// scale), for callers that fingerprint many cells of one machine.
[[nodiscard]] std::uint64_t run_fingerprint(std::uint64_t config_fp,
                                            const trace::WorkloadCombo& combo,
                                            const schemes::SchemeSpec& spec);

class ExperimentRunner {
 public:
  ExperimentRunner(const SystemConfig& cfg, const RunScale& scale,
                   std::string cache_dir = default_cache_dir(),
                   std::string warm_bank_dir = default_warm_bank_dir());

  /// Builds the runner's machine and scale from a scenario spec; aborts
  /// with the spec's validate() message on an unbuildable scenario.
  explicit ExperimentRunner(const ScenarioSpec& scenario,
                            std::string cache_dir = default_cache_dir(),
                            std::string warm_bank_dir =
                                default_warm_bank_dir());

  /// Runs (or loads) one combo under one scheme.  Safe to call from many
  /// threads concurrently; each call simulates on its own CmpSystem.
  RunResult run(const trace::WorkloadCombo& combo,
                const schemes::SchemeSpec& spec);

  /// Re-publishes a known-good result into the eval cache — the exact
  /// store run() would have performed.  Used by campaign journal replay
  /// (sim/journal.hpp) so a resumed campaign reproduces the
  /// uninterrupted run's cache contents even for cells it never
  /// re-simulated.
  void seed_cache(const trace::WorkloadCombo& combo,
                  const schemes::SchemeSpec& spec,
                  const std::vector<double>& ipc);

  /// Direct cache probe: loads this task's published IPCs without
  /// simulating on a miss (and without firing on_progress).  One read
  /// of the task's own entry file, never a directory listing: the
  /// campaign service probes each cell its answer index misses, and
  /// only cells missing here too enter the backlog.
  [[nodiscard]] bool cached_ipc(const trace::WorkloadCombo& combo,
                                const schemes::SchemeSpec& spec,
                                std::vector<double>& ipc) const;

  /// Results for one combo under a scheme grid, keyed by scheme id
  /// ("L2P", "L2S", "CC(25%)", ..., "DSR", "SNUG").
  using ComboResults = std::map<std::string, RunResult>;

  /// Optional progress callback: (combo, scheme, cached).  Invocations are
  /// serialised under an internal mutex, so the callback itself does not
  /// need to be thread-safe even when run() is called concurrently.
  std::function<void(const std::string&, const std::string&, bool)>
      on_progress;

  [[nodiscard]] const SystemConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const RunScale& scale() const noexcept { return scale_; }

  /// Recovery counters of the two stores, for bench summary lines.
  [[nodiscard]] EvalCache::Recovery cache_recovery() const noexcept {
    return cache_.recovery();
  }
  [[nodiscard]] WarmStateBank::Recovery warm_recovery() const noexcept {
    return warm_bank_.recovery();
  }

  /// Cache-entry basename for one task (combo, scheme id, fingerprint);
  /// exposed for fingerprint-stability tests and cache tooling.
  [[nodiscard]] std::string cache_key(const trace::WorkloadCombo& combo,
                                      const schemes::SchemeSpec& spec) const;

  /// Warm-state-bank entry basename for one task's warm-up prefix
  /// (functional mode; see sim/warm_state.hpp).
  [[nodiscard]] std::string warm_key(const trace::WorkloadCombo& combo,
                                     const schemes::SchemeSpec& spec) const;

  /// True when the warm-state bank already holds this task's warm-up
  /// prefix (header-validated probe) — the --dry-run hit/miss
  /// prediction.  Always false outside functional mode.
  [[nodiscard]] bool warm_state_banked(
      const trace::WorkloadCombo& combo,
      const schemes::SchemeSpec& spec) const;

 private:
  [[nodiscard]] std::string cache_key(const trace::WorkloadCombo& combo,
                                      const schemes::SchemeSpec& spec,
                                      std::uint64_t fingerprint) const;
  [[nodiscard]] std::string warm_key(const trace::WorkloadCombo& combo,
                                     const schemes::SchemeSpec& spec,
                                     std::uint64_t fingerprint) const;
  SystemConfig cfg_;
  RunScale scale_;
  EvalCache cache_;
  /// Fingerprint-keyed warm-state store, active only under
  /// warmup-mode=functional (constructed disabled otherwise so timing
  /// runs never touch the bank directory).
  WarmStateBank warm_bank_;
  std::mutex progress_mu_;
};

}  // namespace snug::sim
