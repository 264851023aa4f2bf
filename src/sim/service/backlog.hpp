// Crash-safe backlog scheduler for the campaign service (ISSUE 9).
//
// The backlog is the server's single source of truth for what work is
// pending, leased, finished or poisoned.  Cells are keyed by their
// run_fingerprint (which covers everything that affects the simulated
// IPCs), so identical cells from different queries deduplicate into one
// backlog entry, and completions persist through the same CRC-framed
// CampaignJournal the campaign engine uses for checkpoint/resume:
// a server killed -9 mid-backlog reopens the journal on restart,
// replays every completed cell, and re-runs only the missing ones —
// no query is lost, no cell is simulated twice, and the resumed
// answers are bit-identical to an uninterrupted run's (IPC bytes come
// from the journal, not a re-simulation).
//
// Admission control: the backlog is bounded.  admit() refuses a query
// whose FRESH cells would push the pending+leased population past
// max_pending — nothing is enqueued and the server answers
// status=retry-after — so a flooded service degrades to an explicit
// backpressure signal instead of an unbounded queue.
//
// The journal is keyed by a constant service fingerprint (not the cell
// grid, which grows as queries arrive); safety comes from the records
// themselves, each keyed by a run_fingerprint that covers machine,
// scale, workload and scheme.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace snug::sim {
class CampaignJournal;
}  // namespace snug::sim

namespace snug::sim::service {

/// One unit of backlog work — a (workload combo, scheme) cell of some
/// query's scenario, plus the identity needed to run and report it.
struct BacklogCell {
  std::uint64_t fp = 0;       ///< run_fingerprint — the dedup/journal key
  std::string label;          ///< "combo/scheme" for fault plans and logs
  std::string combo;          ///< workload combo name
  std::string scheme;         ///< SchemeSpec::id()
  std::uint64_t runner_key = 0;  ///< config_fingerprint — picks the runner
};

/// FIFO scheduler over deduplicated cells with journal-backed
/// completion.  Thread-safe.
class BacklogScheduler {
 public:
  enum class State : std::uint8_t {
    kUnknown,   ///< never admitted
    kPending,   ///< queued, waiting for a worker
    kLeased,    ///< handed to a worker (lease live)
    kDone,      ///< completed — IPCs available
    kPoisoned,  ///< failed terminally — error available
  };

  struct Counters {
    std::uint64_t admitted = 0;       ///< fresh cells enqueued
    std::uint64_t deduplicated = 0;   ///< cells already known at admit
    std::uint64_t journal_hits = 0;   ///< cells completed by replay
    std::uint64_t shed = 0;           ///< admit() refusals (admission cap)
    std::uint64_t requeued = 0;       ///< lease-expiry reassignments
    std::uint64_t completed = 0;
    std::uint64_t poisoned = 0;
    std::uint64_t duplicate_completions = 0;  ///< late completes ignored
  };

  /// `max_pending` bounds pending+leased cells (0 = unbounded);
  /// `journal_path` "" disables persistence (tests only — a real server
  /// always journals).
  BacklogScheduler(std::size_t max_pending, const std::string& journal_path);
  ~BacklogScheduler();

  BacklogScheduler(const BacklogScheduler&) = delete;
  BacklogScheduler& operator=(const BacklogScheduler&) = delete;

  /// Admits a query's cells.  Cells already known (any state) are
  /// deduplicated; cells found completed in the journal become kDone
  /// immediately.  If the remaining fresh cells would exceed
  /// max_pending, NOTHING new is enqueued and admit returns false (the
  /// shed query keeps no partial state).  On success the fresh cells'
  /// fingerprints are appended to `newly_pending`.
  [[nodiscard]] bool admit(const std::vector<BacklogCell>& cells,
                           std::vector<std::uint64_t>* newly_pending);

  /// Records a cache-hit completion for a cell never admitted: marks it
  /// kDone and journals it, so a restart replays cache answers too.
  /// No-op when the fp is already known.
  void inject_done(const BacklogCell& cell, const std::vector<double>& ipc);

  /// Pops the oldest pending cell into `out` and marks it kLeased.
  /// False when nothing is pending.
  [[nodiscard]] bool next_pending(BacklogCell& out);

  /// Returns a leased cell to the back of the pending queue (lease
  /// expired or grant denied).  No-op unless currently kLeased.
  void requeue(std::uint64_t fp);

  /// Completes a pending/leased cell: journals the IPCs and marks
  /// kDone.  False (counted as a duplicate) when the cell is already
  /// done or poisoned — a reassigned-then-finished straggler must not
  /// double-answer.
  [[nodiscard]] bool complete(std::uint64_t fp,
                              const std::vector<double>& ipc);

  /// Terminally fails a pending/leased cell with a diagnostic.
  void poison(std::uint64_t fp, const std::string& error);

  [[nodiscard]] State state(std::uint64_t fp) const;
  /// IPCs of a kDone cell; false otherwise.
  [[nodiscard]] bool result(std::uint64_t fp, std::vector<double>& ipc) const;
  /// Diagnostic of a kPoisoned cell ("" otherwise).
  [[nodiscard]] std::string poison_error(std::uint64_t fp) const;

  /// Pending + leased population (the admission-control quantity).
  [[nodiscard]] std::size_t backlog() const;
  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] Counters counters() const;

  // Journal pass-throughs for the server's stats line.
  [[nodiscard]] std::uint64_t journal_stale_reaped() const;
  [[nodiscard]] std::uint64_t journal_discarded_bytes() const;
  [[nodiscard]] std::uint64_t journal_append_failures() const;
  [[nodiscard]] std::size_t journal_replayed() const;

 private:
  /// A cell that is not done: pending, leased or poisoned.
  struct Entry {
    State state = State::kUnknown;
    BacklogCell cell;   ///< kPending / kLeased (cleared when poisoned)
    std::string error;  ///< kPoisoned
  };

  void journal_append_locked(std::uint64_t fp,
                             const std::vector<double>& ipc);
  [[nodiscard]] bool known_locked(std::uint64_t fp) const {
    return done_.count(fp) != 0 || entries_.count(fp) != 0;
  }
  [[nodiscard]] std::size_t backlog_unlocked() const {
    return queue_.size() + leased_;
  }

  const std::size_t max_pending_;
  std::unique_ptr<CampaignJournal> journal_;

  mutable std::mutex mu_;
  std::map<std::uint64_t, Entry> entries_;
  /// Completed cells keep only fp -> IPCs: a long-lived server finishes
  /// one cell per miss it serves, and nothing reads a done cell's
  /// label, combo or scheme again.
  std::unordered_map<std::uint64_t, std::vector<double>> done_;
  std::deque<std::uint64_t> queue_;  ///< pending fps, FIFO
  std::size_t leased_ = 0;           ///< cells currently in State::kLeased
  Counters counters_;
};

}  // namespace snug::sim::service
