// AnswerIndex — the reader-side fingerprint index over the EvalCache
// (tier 1 of the hit-path latency stack).
//
// Without this index, every warm query would pay one file read per cell
// (EvalCache::load) for a result that never changes.  The index
// front-loads that work: on server open it scans the cache directory
// ONCE through the eval cache's validated scan (EvalCache::scan: the
// same checks as EvalCache::load), and pins the fingerprint -> IPC
// mapping in an open-addressing hash table.  A warm lookup is then a couple of
// L1-resident probes — zero directory scans, zero file reads.
//
// Freshness without rescans: the directory is listed once, at open.
// Same-process completions are insert()ed as the server stores them;
// the index is the server's only in-memory record of a finished cell.
// An entry another process publishes later is found by name: a cell
// that misses the index and is not already queued probes its own cache
// file (ExperimentRunner::cached_ipc — one open(), no listing) and the
// server insert()s a hit (CampaignServer::build_part).  Nothing on the
// serving path lists the directory, so the exclusive lock is only ever
// held for an insert.
//
// Safety: the index can never serve a wrong answer: entries are
// CRC-validated on the way in, and an entry name embeds its
// fingerprint, so a name is never re-bound to different bytes (heals
// replace corrupt files, which were never indexed).  Corrupt entries
// found during the open scan are quarantined by the store
// (sim/blob_store.hpp), never deleted.
#pragma once

#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <string>
#include <vector>

namespace snug::sim::service {

class AnswerIndex {
 public:
  struct Counters {
    std::uint64_t entries = 0;      ///< fingerprints currently indexed
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t files_indexed = 0;
    std::uint64_t files_rejected = 0;  ///< corrupt/stale at the open scan
    std::uint64_t quarantined = 0;     ///< corrupt entries moved aside
  };

  /// Opens over `cache_dir` and runs the one full scan.
  explicit AnswerIndex(const std::string& cache_dir);

  AnswerIndex(const AnswerIndex&) = delete;
  AnswerIndex& operator=(const AnswerIndex&) = delete;

  /// The hit path: true (filling `ipc`) when `fp` is indexed.  Memory
  /// only — no syscalls.  Thread-safe (shared lock).
  [[nodiscard]] bool lookup(std::uint64_t fp, std::vector<double>& ipc);

  /// Records a result this process just stored, computed or found by a
  /// by-name cache probe.  No-op for ipc empty/oversized or when the
  /// same fp is already indexed.
  void insert(std::uint64_t fp, const std::vector<double>& ipc);

  [[nodiscard]] Counters counters() const;

 private:
  struct Slot {
    std::uint64_t fp = 0;       ///< 0 = empty (fp 0 falls back to miss)
    std::uint32_t offset = 0;   ///< into pool_
    std::uint32_t count = 0;
  };

  // The _locked helpers require mu_ held exclusively.
  void insert_locked(std::uint64_t fp, const double* ipc,
                     std::uint32_t count);
  void grow_locked();

  mutable std::shared_mutex mu_;
  std::vector<Slot> slots_;     ///< open addressing, power-of-two size
  std::vector<double> pool_;    ///< slot payloads, appended on insert
  std::size_t used_ = 0;
  Counters counters_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace snug::sim::service
