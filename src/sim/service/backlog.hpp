// Backlog scheduler for the campaign service.
//
// The backlog tracks the cells that are not finished: pending, running
// or poisoned.  Cells are keyed by their run_fingerprint (which covers
// everything that affects the simulated IPCs), so identical cells from
// different queries deduplicate into one backlog entry.  A finished
// cell leaves the backlog: its EvalCache entry is its durable record
// and the server's AnswerIndex its in-memory one.  A server killed -9
// mid-backlog re-ingests its surviving submit files on restart;
// finished cells answer from the cache, the rest are admitted again,
// and a cell whose cache entry was lost re-simulates to the same bytes.
//
// Admission control: the backlog is bounded.  admit() refuses a query
// whose FRESH cells would push the pending+running population past
// max_pending — nothing is enqueued and the server answers
// status=retry-after — so a flooded service degrades to an explicit
// backpressure signal instead of an unbounded queue.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace snug::sim::service {

/// One unit of backlog work — a (workload combo, scheme) cell of some
/// query's scenario, plus the identity needed to run and report it.
struct BacklogCell {
  std::uint64_t fp = 0;       ///< run_fingerprint — the dedup key
  std::string label;          ///< "combo/scheme" for fault plans and logs
  std::string combo;          ///< workload combo name
  std::string scheme;         ///< SchemeSpec::id()
  std::uint64_t runner_key = 0;  ///< config_fingerprint — picks the runner
};

/// FIFO scheduler over deduplicated unfinished cells.  Thread-safe.
class BacklogScheduler {
 public:
  enum class State : std::uint8_t {
    kUnknown,   ///< never admitted, or finished
    kPending,   ///< queued, waiting for a worker
    kRunning,   ///< claimed by a worker, which runs it exactly once
    kPoisoned,  ///< failed terminally — error available
  };

  struct Counters {
    std::uint64_t admitted = 0;       ///< fresh cells enqueued
    std::uint64_t deduplicated = 0;   ///< cells already known at admit
    std::uint64_t shed = 0;           ///< admit() refusals (admission cap)
    std::uint64_t completed = 0;
    std::uint64_t poisoned = 0;
  };

  /// `max_pending` bounds pending+running cells (0 = unbounded).
  explicit BacklogScheduler(std::size_t max_pending);

  BacklogScheduler(const BacklogScheduler&) = delete;
  BacklogScheduler& operator=(const BacklogScheduler&) = delete;

  /// Admits a query's cells.  Cells already known (any state) are
  /// deduplicated.  If the remaining fresh cells would exceed
  /// max_pending, NOTHING new is enqueued and admit returns false (the
  /// shed query keeps no partial state).  On success the fresh cells'
  /// fingerprints are appended to `newly_pending`.
  [[nodiscard]] bool admit(const std::vector<BacklogCell>& cells,
                           std::vector<std::uint64_t>* newly_pending);

  /// Pops the oldest pending cell into `out` and marks it kRunning.
  /// False when nothing is pending.
  [[nodiscard]] bool next_pending(BacklogCell& out);

  /// Completes a running cell: it leaves the backlog.  No-op unless
  /// the cell is kRunning.
  void complete(std::uint64_t fp);

  /// Terminally fails a pending/running cell with a diagnostic.
  void poison(std::uint64_t fp, const std::string& error);

  [[nodiscard]] State state(std::uint64_t fp) const;
  /// Diagnostic of a kPoisoned cell ("" otherwise).
  [[nodiscard]] std::string poison_error(std::uint64_t fp) const;

  /// Pending + running population (the admission-control quantity).
  [[nodiscard]] std::size_t backlog() const;
  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] Counters counters() const;

 private:
  /// An unfinished cell: pending, running or poisoned.
  struct Entry {
    State state = State::kUnknown;
    BacklogCell cell;   ///< kPending / kRunning (cleared when poisoned)
    std::string error;  ///< kPoisoned
  };

  /// Drops a kPending or kRunning entry's place in the queue or the
  /// running count (mu_ held).
  void unqueue_locked(std::uint64_t fp, State state);
  [[nodiscard]] std::size_t backlog_unlocked() const {
    return queue_.size() + running_;
  }

  const std::size_t max_pending_;

  mutable std::mutex mu_;
  std::map<std::uint64_t, Entry> entries_;
  std::deque<std::uint64_t> queue_;  ///< pending fps, FIFO
  std::size_t running_ = 0;          ///< cells currently in State::kRunning
  Counters counters_;
};

}  // namespace snug::sim::service
