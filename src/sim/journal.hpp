// CampaignJournal — an append-only, CRC-framed record log of completed
// campaign cells (ISSUE 8), the checkpoint half of checkpoint/resume.
//
// While a campaign runs, every finished (combo, scheme) cell is
// appended as one self-validating frame.  A campaign killed mid-flight
// (kill -9 included) leaves at worst a torn final frame; on the next
// run the engine opens the same journal, replays the valid prefix into
// its result slots, atomically rewrites the file without the torn tail,
// and simulates only the missing cells.  Resume ≡ uninterrupted run,
// bit-identically (pinned by tests/sim/journal_test.cpp and the CI
// kill-resume smoke): cells are keyed by their run_fingerprint, which
// covers everything that affects the simulated IPCs, and replayed IPCs
// are the exact bytes the original simulation produced.
//
// File layout (host-endian, like the stores):
//   header     u32 magic 'SNUJ' | u32 version | u64 campaign fingerprint
//   record*    u32 payload len  | u32 CRC-32C(payload) | payload
//   payload    u64 run fingerprint | u32 ipc count | f64 x count
//
// A journal whose header names a different campaign (or format version)
// is renamed aside — `<path>.stale.<pid>.<seq>`, never deleted — and a
// fresh journal is started: resuming bench A's campaign with bench B's
// journal must not replay anything, but must not destroy B's progress
// either.  All I/O goes through the fault::Env seam, so torn appends
// and poisoned reads are exercised deterministically in tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/fault.hpp"

namespace snug::sim {

class CampaignJournal {
 public:
  static constexpr std::uint32_t kMagic = 0x4A554E53;  // "SNUJ"
  static constexpr std::uint32_t kVersion = 1;

  /// Opens (or resumes) the journal at `path` for the campaign whose
  /// identity hashes to `campaign_fingerprint`; pass "" to disable.
  /// Opening replays the valid record prefix, discards a torn tail by
  /// atomically rewriting the file, and renames a stale journal aside.
  CampaignJournal(std::string path, std::uint64_t campaign_fingerprint);

  CampaignJournal(const CampaignJournal&) = delete;
  CampaignJournal& operator=(const CampaignJournal&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return !path_.empty(); }

  /// The replayed IPCs of a completed cell, by run fingerprint.
  [[nodiscard]] bool lookup(std::uint64_t run_fingerprint,
                            std::vector<double>& ipc) const;

  /// Appends one completed cell (thread-safe; one flushed frame per
  /// call, so a crash can tear at most the final frame).  Best-effort:
  /// an append failure (e.g. ENOSPC) is counted, not thrown, and the
  /// file is repaired from the in-memory image of known-good frames so
  /// the partial frame cannot bury later successful appends.
  void append(std::uint64_t run_fingerprint,
              const std::vector<double>& ipc);

  /// Cells replayed from the prior run at open.
  [[nodiscard]] std::size_t replayed_cells() const noexcept {
    return records_.size();
  }
  /// Bytes of torn tail discarded at open (0 on a clean journal).
  [[nodiscard]] std::uint64_t discarded_tail_bytes() const noexcept {
    return discarded_tail_bytes_;
  }
  /// True when a stale journal (wrong campaign/version) was renamed
  /// aside at open.
  [[nodiscard]] bool reset_stale() const noexcept { return reset_stale_; }
  /// Dead writers' `.stale.<pid>` siblings removed at open — they are
  /// evidence only while their writer might still want them.
  [[nodiscard]] std::uint64_t stale_reaped() const noexcept {
    return stale_reaped_;
  }
  /// Appends that failed (journal stays best-effort).
  [[nodiscard]] std::uint64_t append_failures() const noexcept {
    return append_failures_;
  }

 private:
  void start_fresh();

  const fault::Env* env_;
  std::string path_;
  std::uint64_t campaign_fp_;
  std::map<std::uint64_t, std::vector<double>> records_;
  /// Byte-exact image of the valid on-disk content (header + whole
  /// frames) — the repair source when an append fails part-way.
  std::vector<std::byte> image_;
  std::mutex append_mu_;
  std::uint64_t discarded_tail_bytes_ = 0;
  std::uint64_t append_failures_ = 0;
  std::uint64_t stale_reaped_ = 0;
  bool reset_stale_ = false;
};

}  // namespace snug::sim
