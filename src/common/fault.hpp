// Deterministic fault injection behind a filesystem seam (ISSUE 8).
//
// Every durable artefact in this repo — blob-store entries (EvalCache
// results and WarmStateBank checkpoints, sim/blob_store.hpp), campaign
// journals and the campaign service's wire files — goes through the
// `Env` interface below instead of calling the filesystem directly.
// In production `env()` is a passthrough to the real filesystem; under
// test a seeded `FaultPlan` can be installed (ScopedFaultPlan, or
// --fault-plan= on the campaign benches) and every chosen operation
// then misbehaves the way real storage does when a disk fills, a writer
// is killed mid-store, or media rots:
//
//   short-write@write   the file lands truncated but the write REPORTS
//                       SUCCESS — the undetectable torn store a kill -9
//                       between write() and fsync() leaves behind
//   enospc@write        a partial file is written, then the write fails
//   torn-rename@rename  the publish rename silently never happens: the
//                       temp file stays (orphan) and the entry misses
//   bit-flip@write/read one payload bit is flipped (media corruption)
//   stall@<op>          the operation sleeps ms= before proceeding
//   fail@read           the read errors outright
//   fail@task           the simulation cell itself throws TransientError
//                       (retried by the campaign engine's backoff loop)
//   crash@task          the process _exits (status 137, as after kill -9)
//                       at the (after+1)-th matching task start, counted
//                       process-wide — a kill at a point fixed by the
//                       plan, not by a timer racing the workers
//
// Determinism: a clause fires as a pure function of (plan seed, clause
// index, operation key, per-key occurrence number) — never of wall
// clock, thread schedule or iteration order — so a faulty campaign is
// exactly reproducible and CI can pin "faulted run == clean run".  (A
// crash clause counts task starts across all keys instead: which cell
// is the (after+1)-th to start may vary with the schedule, how many
// cells started before the crash does not.)  The
// key of a read or write is its path, except that a publish temp
// (`<target>.tmp.<pid>.<seq>`, common/temp_name.hpp) is keyed by its
// `<target>.tmp` stem: the same clause tears the same publishes in
// every process.
//
// Grammar (README "Robustness & recovery" has the full story):
//   plan    := clause (';' clause)*
//   clause  := 'seed=' N | kind '@' op [':' key '=' val (',' key '=' val)*]
//   kind    := short-write | enospc | torn-rename | bit-flip | stall | fail
//              | crash
//   op      := read | write | rename | task
//   keys    := p=<0..1>       fire probability (default 1)
//              first=N        only the first N matching occurrences fire
//              every=N        every Nth matching occurrence fires
//              ms=N           stall duration (stall clauses)
//              after=N        task starts survived before the crash
//                             (crash clauses, which take only after= and
//                             match=; default 0)
//              match=S        only keys (paths / task labels) containing S
// e.g. "seed=7; short-write@write:p=0.25; fail@task:match=mixA/SNUG,first=2"
//      "crash@task:after=3"
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace snug::fault {

enum class Op : std::uint8_t {
  kRead,
  kWrite,
  kRename,
  kTask,
};
enum class Kind : std::uint8_t {
  kShortWrite,
  kEnospc,
  kTornRename,
  kBitFlip,
  kStall,
  kFail,
  kCrash,  ///< @task only: _exit the process (see maybe_fail_task)
};

/// One injection rule; see the grammar above.
struct Clause {
  Kind kind = Kind::kFail;
  Op op = Op::kTask;
  double prob = 1.0;          ///< p= (1 = always, gated by first=/every=)
  std::uint64_t first = 0;    ///< first=N matching occurrences (0 = all)
  std::uint64_t every = 0;    ///< every=N matching occurrences (0 = all)
  std::uint64_t stall_ms = 0; ///< ms= for stall clauses
  std::uint64_t after = 0;    ///< after= for crash clauses
  std::string match;          ///< substring filter on the operation key
};

struct FaultPlan {
  std::uint64_t seed = 0;
  std::vector<Clause> clauses;

  [[nodiscard]] bool empty() const noexcept { return clauses.empty(); }

  /// Parses the grammar above; on failure returns false and `error`
  /// names the offending clause.
  static bool parse(const std::string& text, FaultPlan& plan,
                    std::string& error);

  /// One-line human summary for --dry-run / logs.
  [[nodiscard]] std::string summary() const;
};

/// Injected-fault counters, by kind.
struct FaultStats {
  std::uint64_t short_writes = 0;
  std::uint64_t enospc = 0;
  std::uint64_t torn_renames = 0;
  std::uint64_t bit_flips = 0;
  std::uint64_t stalls = 0;
  std::uint64_t read_failures = 0;
  std::uint64_t task_failures = 0;

  [[nodiscard]] std::uint64_t total() const noexcept {
    return short_writes + enospc + torn_renames + bit_flips + stalls +
           read_failures + task_failures;
  }
};

/// Thrown by fail@task clauses (and retried by the campaign engine's
/// backoff loop); anything else deriving from it is equally retryable.
struct TransientError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Filesystem seam.  All paths are plain strings; every method is
/// thread-safe and reports failure by return value — callers degrade
/// (recompute, reap, quarantine), never abort, on I/O trouble.
class Env {
 public:
  virtual ~Env() = default;

  /// Reads up to `max_bytes` of the file into `out` (whole file by
  /// default).  False when missing or unreadable.
  virtual bool read_file(const std::string& path,
                         std::vector<std::byte>& out,
                         std::size_t max_bytes = SIZE_MAX) const = 0;
  /// Creates/truncates `path` with exactly [data, data+n).  False on
  /// failure (a partial file may remain — callers clean up).
  virtual bool write_file(const std::string& path, const std::byte* data,
                          std::size_t n) const = 0;
  /// Appends [data, data+n) to `path`, creating it if missing, flushed
  /// before returning.  False on failure.
  virtual bool append_file(const std::string& path, const std::byte* data,
                           std::size_t n) const = 0;
  virtual bool rename(const std::string& from, const std::string& to)
      const = 0;
  virtual void remove(const std::string& path) const = 0;
  virtual bool create_directories(const std::string& dir) const = 0;
  /// Regular-file names (not paths) in `dir`, sorted; empty when the
  /// directory is missing.
  virtual std::vector<std::string> list_dir(const std::string& dir)
      const = 0;
};

/// The passthrough filesystem Env (process-wide singleton).
[[nodiscard]] Env& real_env();

/// The currently installed Env: real_env() unless a ScopedFaultPlan is
/// alive.  Stores resolve their Env through this at construction.
[[nodiscard]] Env& env();

/// Installs `plan` process-wide for its lifetime: env() serves a
/// fault-injecting wrapper and maybe_fail_task() consults the plan's
/// @task clauses.  Nests (the previous installation is restored on
/// destruction).  Install before spawning campaign workers.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(const FaultPlan& plan);
  ~ScopedFaultPlan();

  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;

  /// Counters of faults this plan has injected so far.
  [[nodiscard]] FaultStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Consults the installed plan's @task clauses for one simulation cell
/// (label "combo/scheme"): a due crash clause ends the process with
/// _exit(137) — no destructors, no flushes, like kill -9 — stall
/// clauses sleep, fail clauses throw TransientError.  No-op when no
/// plan is installed — zero cost on the production path beyond one
/// relaxed atomic load.
void maybe_fail_task(const std::string& label);

/// True when a ScopedFaultPlan is currently installed.
[[nodiscard]] bool plan_installed() noexcept;

/// Counters of the installed plan (zeroes when none) — for bench
/// summary lines that cannot see the ScopedFaultPlan instance.
[[nodiscard]] FaultStats installed_stats() noexcept;

}  // namespace snug::fault
