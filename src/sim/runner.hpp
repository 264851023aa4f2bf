// ExperimentRunner — executes (workload combo x scheme) timing runs and
// caches per-core IPCs on disk, so the three figure benches (9, 10, 11)
// share one simulation campaign instead of repeating it.
//
// The runner is concurrency-safe: any number of threads may call run()
// on the same instance (the campaign executor in sim/executor.hpp does
// exactly that), and concurrent processes may share one cache directory —
// stores are atomic temp-file-then-rename, loads validate a versioned
// binary header and reject anything truncated or stale.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/fault.hpp"
#include "common/fsepoch.hpp"
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

/// One-file-per-entry disk cache keyed by a fingerprint of
/// (combo, scheme, config, scale).
///
/// Entry format (host-endian, `<key>.snugc`; the magic word doubles as
/// an endianness check):
///   u32 magic 'SNUG'   u32 format version   u64 key fingerprint
///   u32 ipc count      u32 payload CRC-32C  f64 x count payload
/// A load succeeds only when magic, version, fingerprint, exact size and
/// payload CRC all check out — short reads, torn writes, bit rot and
/// version bumps all fall through to a fresh simulation.  Rejections are
/// classified: *stale* entries (wrong version or fingerprint — valid
/// files that simply answer a different question) stay in place, while
/// *structurally corrupt* files (bad magic, truncation, trailing bytes,
/// CRC mismatch, implausible count) are quarantined — renamed into
/// `<dir>/quarantine/`, never deleted — so they stop shadowing fresh
/// stores but remain inspectable.  Stores write a uniquely named temp
/// file and rename() it into place, so a concurrent reader can never
/// observe a half-written entry; opening a cache reaps temp files whose
/// writer process is dead (see sim/store_recovery.hpp).  All I/O goes
/// through the fault::Env seam, so every one of these failure paths is
/// exercised deterministically by tests/sim/fault_injection_test.cpp.
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
  /// treated as corruption.
  static constexpr std::uint32_t kMaxEntries = 4096;

  /// Recovery actions taken by this instance (see the class comment).
  struct Recovery {
    std::uint64_t reaped_temps = 0;  ///< dead writers' temps removed on open
    std::uint64_t quarantined = 0;   ///< corrupt entries renamed aside
    /// Oldest quarantine/ entries removed at open to stay within the
    /// kQuarantineCap bound (sim/store_recovery.hpp).
    std::uint64_t quarantine_trimmed = 0;
  };

  /// `dir` is created on demand; pass "" to disable caching.  Opening
  /// runs the orphaned-temp reap.
  explicit EvalCache(std::string dir);

  EvalCache(const EvalCache&) = delete;
  EvalCache& operator=(const EvalCache&) = delete;

  [[nodiscard]] bool load(const std::string& key, std::uint64_t fingerprint,
                          std::vector<double>& ipc) const;
  void store(const std::string& key, std::uint64_t fingerprint,
             const std::vector<double>& ipc) const;
  [[nodiscard]] bool enabled() const noexcept { return !dir_.empty(); }

  /// Header-validated probe: true when a well-formed entry for this
  /// (key, fingerprint) is currently published.  No CRC verdict and no
  /// quarantine (a later load makes the structural call), mirroring
  /// WarmStateBank::contains — cheap enough for a service admission
  /// path.
  [[nodiscard]] bool contains(const std::string& key,
                              std::uint64_t fingerprint) const;

  /// Counts entries published in the directory, picking up entries from
  /// OTHER processes since this instance opened (multi-process
  /// read-sharing: the writer's atomic temp-then-rename publish means a
  /// re-scan can never observe a half-written entry).  Loads always go
  /// to disk, so refresh() is not required for correctness — it exists
  /// so a long-lived server can report (and tests can pin) how many
  /// entries are visible.  Returns the number of published entries now
  /// in the directory.
  ///
  /// The directory is only LISTED when its stat epoch (mtime_ns, size)
  /// moved since the last refresh — every publish is a rename into the
  /// directory, which perturbs the epoch — so a server polling refresh()
  /// pays one metadata syscall per call, not a scan (ISSUE 10).  The
  /// stat is deliberately outside the fault::Env seam: the epoch is a
  /// pure memoisation key, never a durability decision.
  std::size_t refresh() const;

  [[nodiscard]] Recovery recovery() const noexcept {
    return {reaped_temps_.load(std::memory_order_relaxed),
            quarantined_.load(std::memory_order_relaxed),
            quarantine_trimmed_.load(std::memory_order_relaxed)};
  }

 private:
  [[nodiscard]] std::string entry_path(const std::string& key) const;

  const fault::Env* env_;  ///< resolved at construction (fault seam)
  std::string dir_;
  mutable std::atomic<std::uint64_t> store_seq_{0};  ///< unique temp names
  std::atomic<std::uint64_t> reaped_temps_{0};
  mutable std::atomic<std::uint64_t> quarantined_{0};
  std::atomic<std::uint64_t> quarantine_trimmed_{0};

  /// refresh() memo: the directory's settled epoch at the last listing
  /// (common/fsepoch.hpp) plus the count it produced.
  mutable std::mutex refresh_mu_;
  mutable DirEpoch refresh_epoch_;
  mutable std::size_t refresh_count_ = 0;
  mutable bool refresh_primed_ = false;
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

  /// Results for one combo under every scheme of the paper grid, keyed by
  /// scheme id ("L2P", "L2S", "CC(25%)", ..., "DSR", "SNUG").
  using ComboResults = std::map<std::string, RunResult>;
  ComboResults run_combo_grid(const trace::WorkloadCombo& combo);

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
  /// The runner's eval cache (read-side service probes: refresh(),
  /// contains()).
  [[nodiscard]] const EvalCache& cache() const noexcept { return cache_; }
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
