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
// The bank is a typed view over the one keyed-blob store
// (sim/blob_store.hpp), which owns the header, validation, quarantine,
// temp reap and atomic publish: every rejection falls back to a fresh
// warm-up simulation.  The view fixes the magic, version, `.snugw`
// suffix and byte-count bound.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/blob_store.hpp"
#include "sim/config.hpp"

namespace snug::sim {

class WarmStateBank {
 public:
  static constexpr std::uint32_t kMagic = 0x4D57554E;  // "NUWM"
  /// v1: initial warm-state blob layout (see CmpSystem::save_warm_state
  /// for the field sequence).  Bump whenever any serialized structure
  /// changes shape so stale checkpoints are rejected wholesale.
  /// v2: a 32-byte header with a u64 byte count and payload CRC-32C.
  /// v3: the shared 24-byte blob-store header (u32 byte count); v2
  /// files are stale by version and left in place.
  /// v4: DSR's blob drops the set-dueling PSEL vector.
  /// v5: the SNUG monitor and DSR blobs drop the sampler cursor vectors.
  /// v6: DSR saves SNUG's layout (one monitor + G/T vector per core, then
  /// the controller), its monitor holding one counter and one divider.
  static constexpr std::uint32_t kVersion = 6;
  /// Hard upper bound on a plausible checkpoint (a 16-core paper-scale
  /// system is a few hundred MB of arenas); the header's u32 count
  /// caps it, and anything larger is treated as corruption.
  static constexpr std::uint32_t kMaxBytes = UINT32_MAX;

  using Recovery = BlobStore::Recovery;

  /// `dir` is created on demand; pass "" to disable the bank.
  explicit WarmStateBank(std::string dir);

  [[nodiscard]] bool load(const std::string& key, std::uint64_t fingerprint,
                          std::vector<std::byte>& blob) const;
  void store(const std::string& key, std::uint64_t fingerprint,
             const std::vector<std::byte>& blob) const;

  /// Cheap presence probe (header-only validation) for --dry-run
  /// hit/miss prediction; a true result can still fail a later full
  /// load if the file is torn mid-payload.
  [[nodiscard]] bool contains(const std::string& key,
                              std::uint64_t fingerprint) const {
    return store_.probe(key, fingerprint);
  }

  [[nodiscard]] bool enabled() const noexcept { return store_.enabled(); }

  [[nodiscard]] Recovery recovery() const noexcept {
    return store_.recovery();
  }

 private:
  BlobStore store_;
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
/// its checkpoint across SNUG/DSR monitor or measurement-length
/// changes, while L2P/L2S/SNUG/DSR and distinct CC thresholds stay
/// distinct (the scheme id is part of the key, and different spill
/// probabilities genuinely diverge during warm-up).
[[nodiscard]] std::uint64_t warm_fingerprint(const SystemConfig& cfg,
                                             const RunScale& scale,
                                             const trace::WorkloadCombo& combo,
                                             const schemes::SchemeSpec& spec);

}  // namespace snug::sim
