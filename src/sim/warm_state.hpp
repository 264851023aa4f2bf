// WarmStateBank — a fingerprint-keyed disk store for post-warm-up system
// checkpoints (ISSUE 6).
//
// A campaign over the paper grid re-warms every (scenario, workload,
// scheme) point from cold even when only the measurement phase differs
// between benches.  Under `warmup-mode=functional` the post-warm-up
// state is small and closed (cache arenas, scheme epoch state, RNG and
// stream cursors — no in-flight timing state, because the functional
// warm-up never creates any), so it can be serialized once and restored
// by every later point sharing the same (scenario, workload, warmup,
// scheme) prefix: restore + measure is bit-identical to warm + measure
// (pinned by tests/sim/warm_state_test.cpp).
//
// The on-disk format follows EvalCache (sim/runner.hpp): a versioned,
// fingerprinted, host-endian header (with a payload CRC-32C since v2)
// followed by an exact-size payload; stores write a uniquely named temp
// file and rename() it into place, so concurrent writers never expose a
// torn entry and loads reject anything truncated, oversized, corrupt or
// stale — every rejection falls back to a fresh warm-up simulation.
// Like EvalCache, rejections are classified: stale entries (wrong
// version/fingerprint) stay in place, structurally corrupt files are
// quarantined into `<dir>/quarantine/`, and opening the bank reaps temp
// files whose writer process is dead (sim/store_recovery.hpp).  All I/O
// goes through the fault::Env seam.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/fault.hpp"
#include "sim/config.hpp"

namespace snug::sim {

class WarmStateBank {
 public:
  static constexpr std::uint32_t kMagic = 0x4D57554E;  // "NUWM"
  /// v1: initial warm-state blob layout (see CmpSystem::save_warm_state
  /// for the field sequence).  Bump whenever any serialized structure
  /// changes shape so stale checkpoints are rejected wholesale.
  /// v2: the header grew a payload CRC-32C (and a reserved pad word);
  /// v1 entries have a 24-byte header and are rejected by version.
  static constexpr std::uint32_t kVersion = 2;
  /// Hard upper bound on a plausible checkpoint (a 16-core paper-scale
  /// system is a few hundred MB of arenas); anything larger is treated
  /// as corruption.
  static constexpr std::uint64_t kMaxBytes = 1ULL << 32;

  /// Recovery actions taken by this instance (see the class comment).
  struct Recovery {
    std::uint64_t reaped_temps = 0;  ///< dead writers' temps removed on open
    std::uint64_t quarantined = 0;   ///< corrupt entries renamed aside
    /// Oldest quarantine/ entries removed at open to stay within the
    /// kQuarantineCap bound (sim/store_recovery.hpp).
    std::uint64_t quarantine_trimmed = 0;
  };

  /// `dir` is created on demand; pass "" to disable the bank.  Opening
  /// runs the orphaned-temp reap and the quarantine bound.
  explicit WarmStateBank(std::string dir);

  WarmStateBank(const WarmStateBank&) = delete;
  WarmStateBank& operator=(const WarmStateBank&) = delete;

  [[nodiscard]] bool load(const std::string& key, std::uint64_t fingerprint,
                          std::vector<std::byte>& blob) const;
  void store(const std::string& key, std::uint64_t fingerprint,
             const std::vector<std::byte>& blob) const;

  /// Cheap presence probe (header-only validation) for --dry-run
  /// hit/miss prediction; a true result can still fail a later full
  /// load if the file is torn mid-payload.
  [[nodiscard]] bool contains(const std::string& key,
                              std::uint64_t fingerprint) const;

  [[nodiscard]] bool enabled() const noexcept { return !dir_.empty(); }

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
};

/// Default bank directory: $SNUG_WARM_BANK_DIR or .snug_warm_bank under
/// the current working directory.
[[nodiscard]] std::string default_warm_bank_dir();

/// Fingerprint of one warm-up prefix: covers exactly the inputs the
/// functional warm-up reads — topology and geometries, core cadence,
/// bus/DRAM, the latencies on the scheme's access path, warmup_cycles,
/// phase_period_refs, warmup_mode, the workload combo and the scheme
/// spec — salted with the bank format version.  Knobs the warm-up
/// provably never consults stay out: measure_cycles, the WBB config
/// (functional warm-up keeps the buffers empty), and other schemes'
/// ablation knobs — so e.g. every CC(x%) point shares
/// its checkpoint across `monitor-sample=` or measurement-length
/// changes, while L2P/L2S/SNUG/DSR and distinct CC thresholds stay
/// distinct (the scheme id is part of the key, and different spill
/// probabilities genuinely diverge during warm-up).
[[nodiscard]] std::uint64_t warm_fingerprint(const SystemConfig& cfg,
                                             const RunScale& scale,
                                             const trace::WorkloadCombo& combo,
                                             const schemes::SchemeSpec& spec);

}  // namespace snug::sim
