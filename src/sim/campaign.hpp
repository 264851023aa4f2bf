// Campaign — a declarative (workload combo x scheme) experiment grid plus
// the engine that executes it, serially or fanned out across worker
// threads.
//
// The grid is flattened combo-major into index-addressed tasks; every
// task's result lands in its own slot, so the assembled CampaignResults
// map is deterministic and bit-identical whether the campaign ran with
// one job or sixteen.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"

namespace snug::sim {

/// Per-combo results keyed by scheme id, e.g. "L2P", "CC(25%)", "SNUG".
using ComboResults = ExperimentRunner::ComboResults;

/// Per-combo results for a whole campaign, keyed by combo name.
using CampaignResults = std::map<std::string, ComboResults>;

/// Maps a --jobs request to a worker count: n > 0 is taken literally,
/// anything else (0 = "auto") resolves to the hardware thread count.
[[nodiscard]] unsigned resolve_jobs(std::int64_t requested) noexcept;

/// A declarative experiment grid: one scenario (topology + scale +
/// workload) crossed with a scheme list — every combo the scenario
/// expands to runs under every scheme.
struct CampaignSpec {
  ScenarioSpec scenario;
  std::vector<schemes::SchemeSpec> schemes;

  /// The scenario's combos, expanded to its core count (deterministic).
  [[nodiscard]] std::vector<trace::WorkloadCombo> combos() const {
    return scenario.combos();
  }

  [[nodiscard]] std::size_t size() const {
    return combos().size() * schemes.size();
  }

  /// The paper's evaluation campaign: all 21 Table-8 combos under the
  /// full 9-scheme grid (Figs. 9-11) on the Table 4 quad-core machine.
  [[nodiscard]] static CampaignSpec paper();

  /// An explicit combo list on the paper machine (tests, ad-hoc grids).
  [[nodiscard]] static CampaignSpec grid(
      std::vector<trace::WorkloadCombo> combos,
      std::vector<schemes::SchemeSpec> schemes);
};

/// Human-readable listings for the --list-schemes / --list-combos /
/// --dry-run bench flags.
[[nodiscard]] std::string describe_schemes(
    const std::vector<schemes::SchemeSpec>& schemes);
[[nodiscard]] std::string describe_combos(
    const std::vector<trace::WorkloadCombo>& combos);
/// The fully expanded scenario x scheme grid, one line per task.
[[nodiscard]] std::string describe_grid(const CampaignSpec& spec);

/// One progress tick, emitted after each (combo, scheme) task finishes.
struct CampaignProgress {
  std::size_t done = 0;   ///< tasks finished so far, including this one
  std::size_t total = 0;  ///< spec.size()
  std::string combo;
  std::string scheme;
  bool cached = false;    ///< served from the eval cache, no simulation
  bool replayed = false;  ///< served from the campaign journal (resume)
};

/// Retry discipline for transiently failing cells: a task throwing
/// fault::TransientError is re-attempted up to `max_attempts` times
/// total, sleeping backoff_ms, 2*backoff_ms, 4*backoff_ms, ... between
/// attempts (deterministic — no jitter, so faulty runs replay exactly).
/// Anything else thrown propagates immediately.
struct RetryPolicy {
  unsigned max_attempts = 3;
  std::uint64_t backoff_ms = 10;

  /// Attempts actually made before giving up (0 counts as 1).
  [[nodiscard]] unsigned attempts() const noexcept {
    return max_attempts > 0 ? max_attempts : 1;
  }
};

/// Runs `attempt()` under `policy`: when it throws fault::TransientError
/// and attempts remain, calls `on_retry()` and sleeps the backoff before
/// the next attempt; the last attempt's TransientError, and anything
/// else thrown, propagates.
template <typename Attempt, typename OnRetry>
void run_with_retry(const RetryPolicy& policy, const Attempt& attempt,
                    const OnRetry& on_retry) {
  for (unsigned a = 1;; ++a) {
    try {
      attempt();
      return;
    } catch (const fault::TransientError&) {
      if (a >= policy.attempts()) throw;
      on_retry();
      std::this_thread::sleep_for(
          std::chrono::milliseconds(policy.backoff_ms << (a - 1)));
    }
  }
}

class CampaignEngine {
 public:
  /// Robustness counters for one run() call (bench summary lines).
  struct Stats {
    std::uint64_t replayed = 0;  ///< cells served from the journal
    std::uint64_t retries = 0;   ///< transient-failure re-attempts
    std::uint64_t journal_discarded_bytes = 0;  ///< torn tail at open
    std::uint64_t journal_append_failures = 0;
    /// Dead writers' `.stale.<pid>` journal siblings reaped at open.
    std::uint64_t journal_stale_reaped = 0;
    bool journal_reset_stale = false;  ///< foreign journal moved aside
  };

  /// `jobs` as in resolve_jobs(): 1 = serial on the calling thread,
  /// 0 = one worker per hardware thread, n = exactly n workers.
  explicit CampaignEngine(ExperimentRunner& runner, unsigned jobs = 1);

  /// Checkpoint/resume: when non-empty, completed cells are journalled
  /// to this file and a resumed run replays them instead of
  /// re-simulating (sim/journal.hpp).  Set before run().
  std::string journal_path;

  /// Transient-failure retry discipline (see RetryPolicy).
  RetryPolicy retry;

  /// Counters of the most recent run().
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Progress hook; invocations are serialised, so the callback does not
  /// need its own locking.  Completion order is nondeterministic under
  /// parallel execution — only the final results map is ordered.
  std::function<void(const CampaignProgress&)> on_progress;

  /// Executes the grid and returns results keyed by combo name.  Every
  /// entry is bit-identical to what a serial run would produce.  The
  /// spec's scenario must describe the same machine the runner was
  /// built from (checked by fingerprint).  With one job the cells run
  /// in grid order on the calling thread; otherwise up to jobs() worker
  /// threads claim them from a shared counter.  The first exception a
  /// cell throws abandons the cells nobody has claimed yet and is
  /// rethrown here once the workers have joined.
  [[nodiscard]] CampaignResults run(const CampaignSpec& spec);

  [[nodiscard]] unsigned jobs() const noexcept { return jobs_; }

 private:
  ExperimentRunner& runner_;
  unsigned jobs_;
  Stats stats_;
};

}  // namespace snug::sim
