// Directory stat epochs — the rescan gate of the campaign service's
// submit poller, their only user.
//
// Every query publish lands by atomic rename INTO the submit directory,
// which perturbs the directory's (mtime, size) signature, so the poller
// can skip its directory listing whenever the signature is unchanged —
// one metadata syscall instead of a scan.
//
// The racy-mtime rule: Linux file timestamps tick on a coarse clock
// (1-4 ms granularity), so two renames inside one tick can leave the
// signature identical.  An epoch is only trusted once it has SETTLED —
// its mtime is at least kEpochSettleNs older than the wall clock —
// exactly git's "racy timestamp" discipline.  An unsettled epoch always
// rescans; that costs a few extra listings right after a publish burst
// and guarantees no publish is ever missed for good.
//
// Epochs gate pure optimisations (skipping a rescan), never durability
// decisions, which is why this helper talks to ::stat directly instead
// of the fault::Env seam.
#pragma once

#include <sys/stat.h>
#include <time.h>

#include <cstdint>
#include <string>

namespace snug {

/// Settle margin: epochs younger than this are never trusted (coarse
/// kernel timestamps tick every 1-4 ms; 10 ms covers both with slack).
inline constexpr std::uint64_t kEpochSettleNs = 10'000'000;

struct DirEpoch {
  std::uint64_t mtime_ns = 0;
  std::uint64_t size = 0;
  bool valid = false;  ///< false: directory unstattable — never trust
  bool operator==(const DirEpoch&) const = default;
};

/// Reads a directory's (mtime_ns, size) signature; invalid on failure.
[[nodiscard]] inline DirEpoch dir_epoch(const std::string& dir) {
  struct stat st{};
  if (::stat(dir.c_str(), &st) != 0) return {};
  DirEpoch e;
  e.mtime_ns = static_cast<std::uint64_t>(st.st_mtim.tv_sec) *
                   1'000'000'000ull +
               static_cast<std::uint64_t>(st.st_mtim.tv_nsec);
  e.size = static_cast<std::uint64_t>(st.st_size);
  e.valid = true;
  return e;
}

/// True when `e` is old enough (vs CLOCK_REALTIME, the timestamp
/// clock) that a same-tick rename can no longer hide behind it.
[[nodiscard]] inline bool epoch_settled(const DirEpoch& e) {
  if (!e.valid) return false;
  struct timespec now{};
  if (::clock_gettime(CLOCK_REALTIME, &now) != 0) return false;
  const std::uint64_t now_ns =
      static_cast<std::uint64_t>(now.tv_sec) * 1'000'000'000ull +
      static_cast<std::uint64_t>(now.tv_nsec);
  return e.mtime_ns + kEpochSettleNs <= now_ns;
}

/// The gate: skip a rescan iff the epoch is valid, unchanged since
/// `last`, and settled.
[[nodiscard]] inline bool epoch_unchanged(const DirEpoch& now,
                                          const DirEpoch& last) {
  return now.valid && now == last && epoch_settled(now);
}

}  // namespace snug
