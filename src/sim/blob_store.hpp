// BlobStore — the one fingerprint-keyed, CRC-checked blob directory
// behind every memoised artefact of the campaign tier: EvalCache
// (per-core IPCs, sim/runner.hpp) and WarmStateBank (functional warm-up
// checkpoints, sim/warm_state.hpp) are typed views that fix only the
// magic, version, file suffix, element size and count bound.
//
// Entry format (host-endian, `<dir>/<key><suffix>`; the magic word
// doubles as an endianness check because a byte-swapped header never
// matches):
//   u32 magic | u32 version | u64 key fingerprint
//   u32 element count | u32 payload CRC-32C | count x elem_bytes payload
//
// A load succeeds only when magic, version, fingerprint, count bound,
// exact size and payload CRC all check out.  Rejections are classified:
// *stale* entries (wrong version or fingerprint — valid files answering
// a different question) stay in place; *structurally corrupt* files
// (bad magic, truncation, trailing bytes, CRC mismatch, implausible
// count) are quarantined — renamed into `<dir>/quarantine/`, never
// deleted — so they stop shadowing fresh stores but remain inspectable.
// The caller recomputes, and its insert heals the slot.
//
// Stores publish atomically (publish_atomic: a uniquely named
// `<name>.tmp.<pid>.<seq>` temp, then rename()), so a concurrent reader
// — another thread or another process — never observes a half-written
// entry.  Opening a store reaps temps whose writer process is dead and
// bounds the quarantine directory.  All I/O goes through the fault::Env
// seam, so every failure path is exercised deterministically by
// tests/sim/blob_store_test.cpp and tests/sim/fault_injection_test.cpp.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/fault.hpp"

namespace snug::sim {

/// What a typed view fixes about its entry files.
struct BlobFormat {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  const char* suffix = "";       ///< entry file suffix, e.g. ".snugc"
  std::uint32_t elem_bytes = 1;  ///< bytes per counted element
  std::uint32_t max_count = 0;   ///< larger counts are corruption
};

class BlobStore {
 public:
  /// Recovery actions taken by this instance.
  struct Recovery {
    std::uint64_t reaped_temps = 0;  ///< dead writers' temps removed on open
    std::uint64_t quarantined = 0;   ///< corrupt entries renamed aside
    /// Oldest quarantine/ entries removed at open to stay within
    /// kQuarantineCap.
    std::uint64_t quarantine_trimmed = 0;
  };

  /// Result of a validated directory scan.
  struct ScanCounts {
    std::uint64_t indexed = 0;   ///< valid entries handed to the visitor
    std::uint64_t rejected = 0;  ///< stale or corrupt entries skipped
  };

  /// `dir` is created on demand; "" disables the store (every insert is
  /// a no-op, every lookup misses).  Opening reaps dead writers' temps
  /// and bounds the quarantine.
  BlobStore(std::string dir, const BlobFormat& format);

  BlobStore(const BlobStore&) = delete;
  BlobStore& operator=(const BlobStore&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return !dir_.empty(); }

  /// Publishes `count` elements at `payload` under (key, fingerprint).
  /// Best-effort: an empty or over-bound payload, or a failed write or
  /// rename, leaves the slot as it was.
  void insert(const std::string& key, std::uint64_t fingerprint,
              const void* payload, std::size_t count) const;

  /// Fills `payload` with the entry's validated payload bytes.  On any
  /// rejection `payload` is left untouched; corrupt files are
  /// quarantined, stale ones stay put.
  [[nodiscard]] bool tryGet(const std::string& key,
                            std::uint64_t fingerprint,
                            std::vector<std::byte>& payload) const;

  /// Header-only probe: true when a well-formed header for (key,
  /// fingerprint) is published.  No CRC or size verdict and no
  /// quarantine — a later tryGet makes the structural call.
  [[nodiscard]] bool probe(const std::string& key,
                           std::uint64_t fingerprint) const;

  /// One pass over every `<key><suffix>` entry: each entry that
  /// validates under its own header fingerprint is handed to `visit`
  /// (fingerprint, payload, element count); stale entries are skipped
  /// and corrupt ones quarantined, exactly as tryGet would.
  ScanCounts scan(const std::function<void(std::uint64_t,
                                           const std::byte*,
                                           std::uint32_t)>& visit) const;

  [[nodiscard]] Recovery recovery() const noexcept {
    return {reaped_temps_, quarantined_.load(std::memory_order_relaxed),
            quarantine_trimmed_};
  }

 private:
  void quarantine(const std::string& name) const;
  [[nodiscard]] std::string entry_name(const std::string& key) const {
    return key + format_.suffix;
  }

  const fault::Env* env_;  ///< resolved at construction (fault seam)
  std::string dir_;
  BlobFormat format_;
  std::uint64_t reaped_temps_ = 0;
  std::uint64_t quarantine_trimmed_ = 0;
  mutable std::atomic<std::uint64_t> quarantined_{0};
};

/// Bound on `<dir>/quarantine/` entries: beyond it, opening a store
/// removes the lexicographically-first surplus (quarantine names embed
/// pid.seq, so for one long-lived writer that is arrival order) and
/// prints one informational line.
inline constexpr std::size_t kQuarantineCap = 256;

/// Atomically replaces `path` with `n` bytes at `data`: writes a
/// uniquely named temp (common/temp_name.hpp) and renames it into
/// place, so concurrent writers never collide and readers never see a
/// partial file.  On failure the temp is removed and false returned.
bool publish_atomic(const fault::Env& env, const std::string& path,
                    const std::byte* data, std::size_t n);

/// publish_atomic for files without a checksum (the campaign service's
/// wire files): the temp is read back, and renamed onto `path` only
/// when the bytes on disk are exactly the bytes intended.  A write that
/// silently tears (a full disk swallowing the tail, the short-write
/// fault) is caught here instead of being renamed into a permanently
/// corrupt file; the temp is removed and the caller retries later.
bool publish_verified(const fault::Env& env, const std::string& path,
                      const std::byte* data, std::size_t n);

/// Deletes `*.tmp.<pid>.<seq>` files in `dir` whose writer process is
/// dead (or whose name is too mangled to tell); live writers' temps are
/// left for their owner.  Returns the number removed.
std::uint64_t reap_orphaned_temps(const fault::Env& env,
                                  const std::string& dir);

/// True when a process with this pid exists (EPERM counts as alive).
[[nodiscard]] bool pid_alive(long pid);

}  // namespace snug::sim
