// CampaignServer — `campaignd`'s engine: a long-lived process that owns
// the EvalCache and a simulation backlog, serving queries through a
// three-tier latency stack:
//
//   tier 1  AnswerIndex (sim/service/index.hpp): an in-memory
//           fingerprint index over the EvalCache, built once at open
//           and kept warm by same-process inserts; a cell it misses
//           probes its own cache file by name before it is queued, so
//           other processes' entries are found without a directory
//           listing.  A warm cell resolves with zero
//           directory scans and zero file reads.  The index is the only
//           in-memory record of a finished cell, and its cache entry
//           the only durable one: a crash before the answer publishes
//           re-ingests the query, which hits the cache again and
//           reproduces the identical answer.
//   tier 2  SubmitRing (sim/service/ring.hpp): same-process clients
//           enqueue RingOp pointers into a bounded lock-free MPSC ring
//           and spin-wait; the drain thread answers warm batches
//           entirely in memory — tens of microseconds, no syscalls.
//           Ring ops whose cells miss the index are admitted into the
//           SAME backlog as file-wire queries, so the ring is
//           latency-only, never a weaker durability tier.
//   tier 3  the file wire (sim/service/wire.hpp): query-v2 files in
//           <root>/submit/, answer-v2 files published atomically in
//           <root>/answers/.  The durability and cross-process tier.
//           The submit poller is epoch-gated: the directory is only
//           LISTED when its stat signature moved since the last pass.
//
// One poll_once() pass:
//
//   ingest     new query files are parsed into per-part cell lists
//              keyed by run_fingerprint.
//              Index-resident cells are answered in memory (hit path —
//              no simulation); the rest are deduplicated into the
//              backlog (sim/service/backlog.hpp).
//              Admission control is PART-granular: a part whose fresh
//              cells would overflow the bounded backlog is shed whole
//              with status=retry-after while the rest of the batch
//              proceeds.  A malformed file answers one status=error
//              part; a submit whose answer file already exists is
//              retired without answering again.
//   publish    queries whose parts are all resolved get their answer
//              published (a file for wire clients; an in-memory
//              completion — plus optionally a file — for ring
//              clients); only AFTER a successful publish is the submit
//              file removed, so a crash at any point re-ingests the
//              query on restart.
//   reap       once per kAnswerKeepCap file-wire answers published,
//              acked answers beyond the cap are reaped from
//              <root>/answers/ (the open-time rule, minus the answers
//              published since the last reap).
//
// serve() runs the next pass as soon as a query file is renamed into
// <root>/submit/ (an inotify watch, sim/service/wire.hpp), a worker
// finishes a cell or the ring thread starts tracking an op; it waits on
// all of them in one poll(2).  poll_ms is only the backstop: the pace
// of the file wire on a filesystem that raises no events.
//
// Answer parts are memoised.  Once every cell of a (scenario, scheme)
// item has resolved from the index or a by-name probe, its whole
// answer part is kept with the item's resolution, and a later query
// for the item copies that part instead of looking up and rebuilding
// each cell.  An indexed cell never changes (simulation is
// deterministic), so the memo is never stale; a part with a pending,
// shed or poisoned cell is never memoised.
//
// Worker threads drain the backlog, each admitted cell running exactly
// once on the worker that claimed it, through per-machine
// ExperimentRunners that share one cache directory.  A TransientError
// goes through the campaign engine's deterministic retry/backoff and
// poisons the cell (status=error) once the attempts run out; a wedged
// process is recovered by killing and restarting it.  A worker
// completes a cell in the backlog, then inserts it into the index; a
// query waiting on it resolves through the index.  Kill -9 the server
// at any moment: on restart the submit dir re-supplies every
// unanswered query, finished cells answer from the cache, and a cell
// whose entry was lost re-simulates (simulation is deterministic) — no
// query lost, none answered twice, answers bit-identical to an
// uninterrupted run (pinned by tests/sim/service_server_test.cpp and
// the CI chaos soaks).  A leftover <root>/backlog.journal from an
// older build is ignored.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/fsepoch.hpp"
#include "schemes/factory.hpp"
#include "sim/campaign.hpp"
#include "sim/runner.hpp"
#include "sim/service/backlog.hpp"
#include "sim/service/index.hpp"
#include "sim/service/ring.hpp"
#include "sim/service/wire.hpp"

namespace snug::sim::service {

struct ServiceConfig {
  std::string root;       ///< service dir: submit/, answers/, warm_bank/
  /// Shared EvalCache directory.  Required: a finished cell's cache
  /// entry is its only durable record.
  std::string cache_dir;
  unsigned workers = 2;
  std::size_t max_backlog = 256;    ///< admission-control bound (0 = off)
  std::uint64_t retry_after_ms = 250;  ///< backoff hint on shed queries
  std::size_t ring_capacity = 1024;    ///< SubmitRing slots (power of two)
  RetryPolicy retry;                ///< TransientError retry/backoff
  /// Test seam: runs on the worker thread right after a simulated cell
  /// is completed and indexed, before the worker claims its next
  /// cell.  Lets a test stop a server at an exact backlog position
  /// instead of sleep-polling its stats.  Unset in production.
  std::function<void()> on_cell_completed;
};

/// Bound on retained answer files: acked answers (no matching submit
/// file) beyond this cap are reaped oldest-name-first, on open and
/// again after every kAnswerKeepCap file-wire publishes — the same
/// pattern as the stores' quarantine bound (kQuarantineCap).
inline constexpr std::size_t kAnswerKeepCap = 256;

/// Bound on the (scenario, scheme) resolve memo.  Every never-seen item
/// adds an entry (~1 KB, plus its answer part once every cell has
/// resolved), so the cap bounds per-miss memory; overflow clears the
/// map wholesale (the memo is pure gain, never a correctness input — a
/// sweep's items are re-resolved once after a clear).
inline constexpr std::size_t kResolveMemoCap = 256;

class CampaignServer {
 public:
  struct Stats {
    std::uint64_t queries_ingested = 0;
    std::uint64_t queries_answered = 0;  ///< answers published (any status)
    /// Malformed files, and queries whose every part is status=error.
    std::uint64_t queries_rejected = 0;
    /// Queries whose every part was shed (status=retry-after).
    std::uint64_t queries_shed = 0;
    std::uint64_t cells_from_cache = 0;  ///< index hit path, no simulation
    /// Parts answered whole from the resolve memo (their cells count in
    /// cells_from_cache too).
    std::uint64_t parts_from_memo = 0;
    std::uint64_t cells_simulated = 0;   ///< == backlog.completed
    std::uint64_t retries = 0;           ///< TransientError re-attempts
    std::uint64_t publish_failures = 0;  ///< answer writes retried
    BacklogScheduler::Counters backlog;
    // Batching, ring and index telemetry.
    std::uint64_t parts_total = 0;       ///< query parts seen (incl. ring)
    /// Per-part status=error at ingest (a malformed file is one part).
    std::uint64_t parts_rejected = 0;
    std::uint64_t parts_shed = 0;        ///< per-part admission sheds
    std::uint64_t ring_submits = 0;      ///< ops popped off the ring
    std::uint64_t ring_inline_answers = 0;  ///< every cell from the index
    std::uint64_t ring_backlogged = 0;   ///< a cell missed the index
    std::uint64_t answers_reaped = 0;  ///< acked answers GC'd (open + serving)
    /// Dead writers' answer and query temps reaped at open.
    std::uint64_t answer_temps_reaped = 0;
    std::uint64_t submit_scans_skipped = 0;  ///< epoch-gated poller skips
    AnswerIndex::Counters index;
    std::uint64_t cache_probes = 0;      ///< by-name probes of index misses
    std::uint64_t cache_probe_hits = 0;  ///< probes that found an entry
    std::uint64_t resolve_memo_entries = 0;  ///< <= kResolveMemoCap
    std::uint64_t work_items = 0;  ///< runnable cells not yet finished
  };

  explicit CampaignServer(ServiceConfig cfg);
  ~CampaignServer();

  CampaignServer(const CampaignServer&) = delete;
  CampaignServer& operator=(const CampaignServer&) = delete;

  /// One ingest + publish (+ reap) pass; returns how much happened
  /// (queries ingested + answers published) so a caller can detect
  /// idleness.  Thread-safe against the workers but
  /// meant to be driven from one serving thread.
  std::size_t poll_once();

  /// Drives poll_once() — at once after a query file lands in submit/,
  /// a cell finishes or a ring op is tracked, else after poll_ms — until
  /// request_stop(), or — when idle_exit_polls > 0 — until that many
  /// consecutive passes saw no progress, no tracked query and no pending
  /// or running cell (campaignd's drain-and-exit mode for
  /// scripted/CI use; 0 serves forever).  Returns the number of passes.
  std::size_t serve(std::size_t idle_exit_polls, std::uint64_t poll_ms);

  /// Makes serve() return after its current pass (waking it from its
  /// wait); workers stop at their next claim.  Async-signal-safe:
  /// campaignd calls it from its SIGINT/SIGTERM handler.
  void request_stop();

  /// Tier 2 entry point: enqueues a same-process batch op.  False when
  /// the ring is full (backpressure — retry or fall back to the file
  /// wire; see RingClient in sim/service/client.hpp).  After a
  /// successful push the op belongs to the server until its state
  /// leaves kPending; the server completes EVERY accepted op, including
  /// at shutdown (status=error parts), so op->wait() always returns.
  [[nodiscard]] bool ring_submit(RingOp* op);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const ServiceConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const AnswerIndex& index() const noexcept { return index_; }

 private:
  /// A simulation cell's runnable identity (the backlog stores only
  /// strings; workers need the real objects and a runner).
  struct WorkItem {
    trace::WorkloadCombo combo;
    schemes::SchemeSpec scheme;
    ExperimentRunner* runner = nullptr;
  };

  /// Memoised resolution of one (scenario text, scheme id) item: the
  /// parse + validate + combo expansion + fingerprint work that is
  /// identical for every repeat of the item.  Warm ring queries skip
  /// straight from here to index lookups — or, once every cell has
  /// resolved, to the memoised answer part.
  struct ResolvedItem {
    bool ok = false;
    std::string error;  ///< !ok: status=error diagnostic
    ScenarioSpec spec;
    schemes::SchemeSpec scheme;
    std::vector<trace::WorkloadCombo> combos;
    std::vector<std::uint64_t> fps;  ///< run_fingerprint per combo
    std::uint64_t runner_key = 0;
    /// The item's status=ok answer part, set by the first build_part
    /// that resolved every cell from the index or a probe.
    mutable std::atomic<std::shared_ptr<const BatchPart>> part;
  };

  /// One cell of one part, in combo order.  `resolved` cells carry
  /// their IPCs inline (index hits); the rest resolve at publish time:
  /// through the backlog while unfinished, then through the index.
  struct TrackedCell {
    std::string combo;
    std::uint64_t fp = 0;
    std::vector<double> ipc;
    bool resolved = false;
  };

  /// A part answers either whole from `memo` (no cells) or cell by cell.
  struct TrackedPart {
    AnswerStatus status = AnswerStatus::kOk;
    std::string error;
    std::uint64_t retry_after_ms = 0;
    std::vector<TrackedCell> cells;
    std::shared_ptr<const BatchPart> memo;
  };

  /// One client query being tracked until every part resolves.
  struct TrackedQuery {
    std::string id;
    RingOp* ring = nullptr;  ///< non-null: complete in memory
    std::vector<TrackedPart> parts;
  };

  std::size_t ingest();
  std::size_t publish();
  void worker_loop(const std::stop_token& stop);
  void ring_loop(const std::stop_token& stop);
  void handle_ring_op(RingOp* op);
  void run_cell(const BacklogCell& cell);
  ExperimentRunner& runner_for(const ScenarioSpec& spec,
                               std::uint64_t runner_key);
  [[nodiscard]] std::shared_ptr<const ResolvedItem> resolve_item(
      const BatchItem& item);
  /// Builds one part: resolve, then answer from the item's memoised
  /// part, or index-lookup each cell, probe the cache file of a cell
  /// that is neither indexed nor queued, admit the rest (whole-part
  /// shed on admission refusal) — memoising the part when every cell
  /// resolved.
  [[nodiscard]] TrackedPart build_part(const BatchItem& item);
  /// True when every part is resolved; fills the complete answer
  /// (poisoned cells turn their part status=error, healthy cells stay).
  [[nodiscard]] bool collect_answer(const TrackedQuery& tq,
                                    ServiceBatchAnswer& out);
  /// Publishes/completes a fully collected answer: wire queries get
  /// their answer file + submit retirement; ring ops complete in
  /// memory (file first when op->publish; the answer is moved into the
  /// op, and text is encoded only for a file).  False on a failed
  /// publish (retried next pass; `answer` is then left untouched).
  [[nodiscard]] bool finish_tracked(const TrackedQuery& tq,
                                    ServiceBatchAnswer&& answer);
  /// Wakes serve() for a publish pass: a tracked query may be answerable.
  void wake_publish();
  /// Wakes workers after the backlog gained pending cells.
  void wake_workers();
  /// Drops a terminal (done or poisoned) cell's work_ entry.
  void forget_work(std::uint64_t fp);
  /// Open-time answer-directory GC: dead writers' temps, then
  /// reap_acked_answers.
  void gc_answers();
  /// Reaps acked answers beyond kAnswerKeepCap, oldest name first,
  /// sparing those published since the last reap (their clients may not
  /// have read them yet); returns the count.  Serving thread only.
  std::uint64_t reap_acked_answers();

  const ServiceConfig cfg_;
  const fault::Env* env_;

  BacklogScheduler backlog_;
  AnswerIndex index_;
  SubmitRing ring_;

  mutable std::mutex runners_mu_;
  std::map<std::uint64_t, std::unique_ptr<ExperimentRunner>> runners_;

  mutable std::mutex resolve_mu_;
  std::unordered_map<std::string, std::shared_ptr<const ResolvedItem>>
      resolve_memo_;

  mutable std::mutex state_mu_;
  /// fp -> how to run it; an entry lives from admission until its cell
  /// completes or is poisoned.
  std::map<std::uint64_t, WorkItem> work_;
  std::map<std::string, TrackedQuery> tracked_;  ///< id -> open query

  /// Submit-poller epoch (serving thread only): the directory is listed
  /// only when its stat signature moved or is too young to trust
  /// (common/fsepoch.hpp).  A failed reject-publish or query read
  /// forces the next pass to rescan (the file must be retried even
  /// though the directory did not change).
  DirEpoch submit_epoch_;
  bool submit_force_rescan_ = false;
  /// Ids of the file-wire answers published since the last reap
  /// (serving thread only: ring ops never publish through this path).
  std::vector<std::string> fresh_answers_;

  std::atomic<std::uint64_t> cells_from_cache_{0};
  std::atomic<std::uint64_t> parts_from_memo_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> publish_failures_{0};
  std::atomic<std::uint64_t> queries_ingested_{0};
  std::atomic<std::uint64_t> queries_answered_{0};
  std::atomic<std::uint64_t> queries_rejected_{0};
  std::atomic<std::uint64_t> queries_shed_{0};
  std::atomic<std::uint64_t> parts_total_{0};
  std::atomic<std::uint64_t> parts_rejected_{0};
  std::atomic<std::uint64_t> parts_shed_{0};
  std::atomic<std::uint64_t> ring_submits_{0};
  std::atomic<std::uint64_t> ring_inline_answers_{0};
  std::atomic<std::uint64_t> ring_backlogged_{0};
  std::atomic<std::uint64_t> answers_reaped_{0};
  std::atomic<std::uint64_t> answer_temps_reaped_{0};
  std::atomic<std::uint64_t> submit_scans_skipped_{0};
  std::atomic<std::uint64_t> cache_probes_{0};
  std::atomic<std::uint64_t> cache_probe_hits_{0};
  std::atomic<bool> stop_{false};

  std::mutex wake_mu_;
  std::condition_variable_any wake_cv_;  ///< pending work for workers

  /// serve()'s wake: an eventfd written by wake_publish() and
  /// request_stop() (write(2) is async-signal-safe) and polled beside
  /// the submit/ watch.
  const int wake_fd_;

  /// Ring drain parking (eventcount-lite): producers bump ring_pushes_
  /// after a push and notify only when the drain thread has parked.
  std::atomic<std::uint64_t> ring_pushes_{0};
  std::atomic<bool> drain_parked_{false};

  /// Declared last: workers and the ring drain must be joined (jthread
  /// dtor order) before any member they touch is destroyed.
  std::vector<std::jthread> workers_;
  std::jthread ring_thread_;
};

}  // namespace snug::sim::service
