// Wire protocol of the campaign service (ISSUE 9) — the file-based
// submit/complete queue between clients and `campaignd`.
//
// A query is one file in `<root>/submit/<id>.query`; the matching
// answer appears at `<root>/answers/<id>.answer`.  Both sides publish
// through publish_verified (sim/blob_store.hpp: unique temp, read-back
// check, rename), so a reader can never observe a half-written message,
// and both go through the fault::Env seam so torn submissions and
// answer-publish failures are exercised deterministically in tests.
//
// One format.  A query carries N scenario x scheme items, and the
// answer gives each its own status, so admission control can shed one
// overloaded part (whole-part, never a partial cell list) while the
// rest proceeds.  A single (scenario, scheme) query is a one-part
// query:
//
//   query-v2
//   id=<client-chosen id, [A-Za-z0-9._-]+>
//   query=<scheme id>|<ScenarioSpec line>   (one line per part, >= 1;
//                                            '|' cannot appear in either)
//
//   answer-v2
//   id=<query id>
//   parts=<N>
//   part=<i> status=ok | error error=<msg> | retry-after retry-after-ms=<n>
//   cell=<i>/<combo name> ipc=<v>,<v>,...   (ok parts only, combo order)
//
// Part lines appear in index order 0..N-1, exactly once each; cell
// lines follow, grouped by part.  A file the server cannot parse (any
// other magic included) is answered with one status=error part naming
// the problem.
//
// An IPC value is the text printf("%.17g") prints in the C locale,
// produced by std::to_chars (snug::append_g17): 17 significant digits
// round-trip an IEEE double exactly, so a resumed server's answers can
// be byte-compared ("diff") against an uninterrupted run's.  The bytes
// are pinned literally in tests/sim/service_wire_test.cpp.
//
// Parsers read every line as a view and every number with
// std::from_chars.  They are strict: a number with leading whitespace,
// a '+' sign, hex digits or a value outside double range is rejected,
// as are empty list entries ("ipc=1,,2", "ipc=1.0,").  The encoders
// never emit any of these.
//
// Same-process ring clients (sim/service/client.hpp) get their answer
// as a ServiceBatchAnswer moved across the ring: no text is encoded
// for them unless they ask for the durable file (publish=true).
//
// Crash contract: the submit file is the durable record of an accepted
// query — the server removes it only AFTER the answer is published, so
// a server killed at any point re-ingests the query on restart and the
// client's poll loop never hangs on a lost query.  Re-publishing an
// identical answer is idempotent.
//
// Waiting is event-driven.  Every publish lands by rename, so both
// sides wait on an inotify watch (RenameWatch) for files renamed into
// the directory they read, with their poll interval as the timeout.
// The watch is only a wake hint: every read, write and rename still
// goes through fault::Env, and a directory that raises no events (a
// refused watch, a network filesystem) is still served, one poll
// interval late.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/fault.hpp"

namespace snug::sim::service {

/// Client-visible status of a completed query.
enum class AnswerStatus : std::uint8_t {
  kOk,
  kError,       ///< malformed query, or a cell poisoned past recovery
  kRetryAfter,  ///< backlog full — resubmit after retry_after_ms
};

struct AnswerCell {
  std::string combo;        ///< workload combo name
  std::vector<double> ipc;  ///< per-core measured IPC
};

/// One scenario x scheme item of a query.
struct BatchItem {
  std::string scenario_text;  ///< ScenarioSpec grammar (sim/scenario.hpp)
  std::string scheme_id;      ///< SchemeSpec::id() grammar
};

/// Hard cap on items per batch — a figure sweep is ~21; anything past
/// this is a malformed (or hostile) message, rejected at parse.
inline constexpr std::size_t kMaxBatchItems = 1024;

struct ServiceBatchQuery {
  std::string id;
  std::vector<BatchItem> items;
};

/// Per-part result of a batch: one item's whole answer.  Shed and error
/// verdicts are part-granular — a part never carries a partial cell
/// list.
struct BatchPart {
  AnswerStatus status = AnswerStatus::kOk;
  std::string error;                 ///< status=error diagnostic
  std::uint64_t retry_after_ms = 0;  ///< status=retry-after backoff hint
  std::vector<AnswerCell> cells;     ///< item's combos, in combo order
};

struct ServiceBatchAnswer {
  std::string id;
  std::vector<BatchPart> parts;  ///< one per query item, in item order
};

/// Query ids become file names: one path component, no separators or
/// shell surprises — [A-Za-z0-9._-]+, at most 128 chars.
[[nodiscard]] bool valid_query_id(const std::string& id);

[[nodiscard]] std::string submit_dir(const std::string& root);
[[nodiscard]] std::string answer_dir(const std::string& root);
[[nodiscard]] std::string query_path(const std::string& root,
                                     const std::string& id);
[[nodiscard]] std::string answer_path(const std::string& root,
                                      const std::string& id);

[[nodiscard]] std::string encode_batch_query(const ServiceBatchQuery& query);
/// False (with a one-line diagnostic) on any malformed line, a bad id,
/// or a missing field; `out` is untouched on failure.  The parsers of
/// both messages share this contract.
[[nodiscard]] bool parse_batch_query(const std::string& text,
                                     ServiceBatchQuery& out,
                                     std::string& error);

[[nodiscard]] std::string encode_batch_answer(
    const ServiceBatchAnswer& answer);
[[nodiscard]] bool parse_batch_answer(const std::string& text,
                                      ServiceBatchAnswer& out,
                                      std::string& error);

/// A wake hint: an inotify watch for files renamed into one directory
/// (IN_MOVED_TO — how publish_verified lands every wire file).  When the
/// kernel refuses the watch, fd() is -1 and wait_ms() just sleeps.
///
/// Closing an inotify fd that held a watch blocked for 15-20 ms in most
/// closes measured on a Linux 6.18 VM, so a watch belongs in a
/// long-lived owner, not in one wait.
class RenameWatch {
 public:
  explicit RenameWatch(const std::string& dir);
  ~RenameWatch();

  RenameWatch(const RenameWatch&) = delete;
  RenameWatch& operator=(const RenameWatch&) = delete;

  /// The pollable fd (readable while events are queued), or -1.
  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Discards every queued event.  Drain BEFORE checking the directory:
  /// a rename that lands after the check then still wakes the next wait.
  void drain() const;

  /// Returns once an event is queued or `ms` pass.
  void wait_ms(std::uint64_t ms) const;

 private:
  int fd_ = -1;
};

/// Client side of the queue: submits query files and waits for answers.
/// One client may be shared by threads, and any number of client
/// processes may point at one service root.  The only state is the
/// answers/ watch, opened by the first wait_batch() that has to wait
/// and kept for the client's lifetime, so a client that never waits —
/// a RingClient's file-wire fallback that is never taken — pays no
/// watch set-up or close.  Threads waiting through one shared client
/// share its watch: when one of them consumes the event for another's
/// answer, that one waits up to its poll_ms.
class ServiceClient {
 public:
  explicit ServiceClient(std::string root);

  /// Atomically publishes the query file.  False (diagnosing into
  /// `error` when given) on a bad id, an empty/oversized batch, or an
  /// I/O failure.
  bool submit_batch(const ServiceBatchQuery& query,
                    std::string* error = nullptr) const;

  /// True when the answer for `id` has been published; false while
  /// still pending.  A published answer that does not parse surfaces as
  /// a single status=error part with the parse diagnostic, so a client
  /// never spins forever on a mangled file.
  bool try_poll_batch(const std::string& id, ServiceBatchAnswer& out) const;

  /// Waits until the answer lands or timeout_ms passes.  Wakes on the
  /// answer's rename into answers/; poll_ms is only the backstop for a
  /// wake that never comes (no watch, another waiter took the event).
  bool wait_batch(const std::string& id, ServiceBatchAnswer& out,
                  std::uint64_t timeout_ms, std::uint64_t poll_ms = 2) const;

 private:
  [[nodiscard]] const RenameWatch& answer_watch() const;

  const fault::Env* env_;  ///< resolved at construction (fault seam)
  std::string root_;
  mutable std::once_flag watch_once_;
  mutable std::unique_ptr<RenameWatch> watch_;  ///< see answer_watch()
};

}  // namespace snug::sim::service
