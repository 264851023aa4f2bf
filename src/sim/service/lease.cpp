#include "sim/service/lease.hpp"

#include "common/fault.hpp"

namespace snug::sim::service {

LeaseTable::LeaseTable(std::uint64_t lease_ms, std::uint32_t max_holds)
    : lease_ms_(lease_ms > 0 ? lease_ms : 1),
      max_holds_(max_holds > 0 ? max_holds : 1) {}

bool LeaseTable::acquire(std::uint64_t fp, const std::string& label,
                         unsigned worker, std::uint64_t now_ms) {
  // Consult the fault plan outside the lock: stall@lease sleeps here.
  const bool denied = fault::maybe_deny_lease(label);
  const std::lock_guard<std::mutex> lock(mu_);
  if (live_.count(fp) != 0) return false;
  if (denied) {
    ++counters_.denied;
    return false;
  }
  live_[fp] = Lease{worker, label, now_ms, now_ms};
  ++holds_[fp];
  ++counters_.granted;
  return true;
}

bool LeaseTable::heartbeat(std::uint64_t fp, unsigned worker,
                           std::uint64_t now_ms) {
  std::string label;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = live_.find(fp);
    if (it == live_.end() || it->second.worker != worker) return false;
    label = it->second.label;
  }
  if (fault::maybe_drop_heartbeat(label)) {
    // Lost on the wire: report success to the worker, renew nothing.
    return true;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = live_.find(fp);
  if (it == live_.end() || it->second.worker != worker) return false;
  it->second.renewed_ms = now_ms;
  ++counters_.renewed;
  return true;
}

void LeaseTable::release(std::uint64_t fp, unsigned worker) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = live_.find(fp);
  if (it != live_.end()) {
    // A straggler releasing after its replacement was granted: the
    // replacement's release drops the grant count.
    if (it->second.worker != worker) return;
    live_.erase(it);
  }
  // The task is finished or failed terminally: no grant can follow, so
  // its grant count goes too.
  holds_.erase(fp);
}

std::vector<LeaseTable::Expiry> LeaseTable::scan(std::uint64_t now_ms) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<Expiry> out;
  for (auto it = live_.begin(); it != live_.end();) {
    const Lease& lease = it->second;
    // The caller reads its clock before taking the lock, so a worker may
    // have renewed (or been granted) the lease at a later ms: that lease
    // is fresh, not 2^64 ms old.
    if (lease.renewed_ms >= now_ms || now_ms - lease.renewed_ms < lease_ms_) {
      ++it;
      continue;
    }
    Expiry e;
    e.fp = it->first;
    e.label = lease.label;
    e.worker = lease.worker;
    const auto holds = holds_.find(it->first);
    e.holds = holds != holds_.end() ? holds->second : 0;
    e.held_ms = now_ms - lease.acquired_ms;
    e.poisoned = e.holds >= max_holds_;
    ++counters_.expired;
    if (e.poisoned) {
      // Quarantined for good: the grant count has done its job.  An
      // expiry that is requeued keeps it, so max_holds still counts.
      ++counters_.poisoned;
      holds_.erase(holds);
    }
    out.push_back(std::move(e));
    it = live_.erase(it);
  }
  return out;
}

std::size_t LeaseTable::live() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return live_.size();
}

std::size_t LeaseTable::tracked_holds() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return holds_.size();
}

LeaseTable::Counters LeaseTable::counters() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

}  // namespace snug::sim::service
