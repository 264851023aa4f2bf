// Lease-based worker supervision for the campaign service.
//
// A long-lived service cannot let one stuck cell pin a backlog entry
// forever, so its workers run under leases: a worker must ACQUIRE a
// lease on a task before running it and HEARTBEAT while it runs; the
// supervisor SCANs for leases whose last renewal is older than the
// lease interval and hands the task back to the backlog (deterministic
// reassignment through the engine's existing retry/backoff machinery).
// A task whose lease has been granted max_holds times is POISONED
// instead of reassigned — the quarantine that caps a
// crash/reassign/crash loop, turning "this cell wedges every worker
// that touches it" into an explicit error answer rather than an
// infinite loop.
//
// Time is injected (every call takes now_ms) so expiry tests are exact,
// and the grant/renewal paths consult fault::maybe_deny_lease /
// maybe_drop_heartbeat — the fail@lease and fail@heartbeat clauses of
// the fault grammar — so lost-heartbeat partitions are driven
// deterministically, never by actually wedging a thread.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace snug::sim::service {

/// Tracks live leases keyed by run fingerprint.  Thread-safe; the
/// supervisor and every worker share one table.
class LeaseTable {
 public:
  /// `lease_ms`: a lease not renewed for this long is expired by
  /// scan().  `max_holds`: total grants (across workers) after which a
  /// task is reported poisoned instead of reassignable.
  explicit LeaseTable(std::uint64_t lease_ms, std::uint32_t max_holds = 3);

  /// One expired lease, as reported by scan().
  struct Expiry {
    std::uint64_t fp = 0;
    std::string label;
    unsigned worker = 0;
    std::uint32_t holds = 0;    ///< lifetime grants of this fp so far
    std::uint64_t held_ms = 0;  ///< now - acquired_ms
    bool poisoned = false;      ///< holds reached max_holds — quarantine
  };

  struct Counters {
    std::uint64_t granted = 0;
    std::uint64_t denied = 0;  ///< fail@lease injections
    std::uint64_t renewed = 0;
    std::uint64_t expired = 0;
    std::uint64_t poisoned = 0;
  };

  /// Grants a lease on `fp` to `worker`.  False when the fp already has
  /// a live lease, or when the installed fault plan denies the grant
  /// (fail@lease) — in both cases the caller requeues the task.
  [[nodiscard]] bool acquire(std::uint64_t fp, const std::string& label,
                             unsigned worker, std::uint64_t now_ms);

  /// Renews `worker`'s lease on `fp`.  False when no such live lease
  /// exists (it expired and was reassigned — the worker should abandon
  /// the task).  NOTE: a fail@heartbeat injection returns TRUE without
  /// renewing — the worker believes the heartbeat landed, the
  /// supervisor sees the lease age out.  That asymmetry is the fault
  /// being modelled.
  [[nodiscard]] bool heartbeat(std::uint64_t fp, unsigned worker,
                               std::uint64_t now_ms);

  /// Releases `worker`'s lease on `fp` (task finished or failed
  /// terminally) and forgets the fp's grant count.  A lease that
  /// already expired is not touched; one another worker now holds is
  /// left whole, grant count included.
  void release(std::uint64_t fp, unsigned worker);

  /// Expires every lease whose last renewal is >= lease_ms old,
  /// removing them from the table and reporting each (in fingerprint
  /// order — deterministic for a given set of expired leases).
  [[nodiscard]] std::vector<Expiry> scan(std::uint64_t now_ms);

  [[nodiscard]] std::size_t live() const;
  /// Fps with a remembered grant count: live, or expired and requeued.
  [[nodiscard]] std::size_t tracked_holds() const;
  [[nodiscard]] Counters counters() const;
  [[nodiscard]] std::uint64_t lease_ms() const noexcept { return lease_ms_; }

 private:
  struct Lease {
    unsigned worker = 0;
    std::string label;
    std::uint64_t acquired_ms = 0;
    std::uint64_t renewed_ms = 0;
  };

  const std::uint64_t lease_ms_;
  const std::uint32_t max_holds_;

  mutable std::mutex mu_;
  std::map<std::uint64_t, Lease> live_;         ///< fp -> live lease
  /// fp -> grants so far, from the first grant until the task is
  /// released after its run or poisoned.
  std::map<std::uint64_t, std::uint32_t> holds_;
  Counters counters_;
};

}  // namespace snug::sim::service
