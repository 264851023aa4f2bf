#include "sim/service/backlog.hpp"

#include "common/rng.hpp"
#include "sim/journal.hpp"

namespace snug::sim::service {
namespace {

/// The service journal's identity is constant — the backlog's cell set
/// grows as queries arrive, so unlike a campaign the grid cannot be
/// part of the key.  Record safety is unaffected: every frame is keyed
/// by a run_fingerprint covering machine, scale, workload and scheme.
std::uint64_t service_journal_fingerprint() {
  return Rng::derive_seed("campaignd-backlog", 0,
                          CampaignJournal::kVersion);
}

}  // namespace

BacklogScheduler::BacklogScheduler(std::size_t max_pending,
                                   const std::string& journal_path)
    : max_pending_(max_pending),
      journal_(std::make_unique<CampaignJournal>(
          journal_path, service_journal_fingerprint())) {}

BacklogScheduler::~BacklogScheduler() = default;

bool BacklogScheduler::admit(const std::vector<BacklogCell>& cells,
                             std::vector<std::uint64_t>* newly_pending) {
  const std::lock_guard<std::mutex> lock(mu_);
  // Pass 1: resolve journal hits and count the genuinely fresh cells.
  // Journal completions are recorded even if the query is then shed —
  // the work is already done and durable; remembering it is free.
  std::vector<const BacklogCell*> fresh;
  for (const BacklogCell& cell : cells) {
    if (known_locked(cell.fp)) {
      ++counters_.deduplicated;
      continue;
    }
    std::vector<double> ipc;
    if (journal_->lookup(cell.fp, ipc)) {
      done_.emplace(cell.fp, std::move(ipc));
      ++counters_.journal_hits;
      continue;
    }
    fresh.push_back(&cell);
  }
  if (max_pending_ > 0 &&
      backlog_unlocked() + fresh.size() > max_pending_) {
    ++counters_.shed;
    return false;  // nothing enqueued — the query keeps no partial state
  }
  for (const BacklogCell* cell : fresh) {
    Entry& e = entries_[cell->fp];
    e.state = State::kPending;
    e.cell = *cell;
    queue_.push_back(cell->fp);
    ++counters_.admitted;
    if (newly_pending != nullptr) newly_pending->push_back(cell->fp);
  }
  return true;
}

void BacklogScheduler::inject_done(const BacklogCell& cell,
                                   const std::vector<double>& ipc) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (known_locked(cell.fp)) return;
  done_.emplace(cell.fp, ipc);
  journal_append_locked(cell.fp, ipc);
}

bool BacklogScheduler::next_pending(BacklogCell& out) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (queue_.empty()) return false;
  const std::uint64_t fp = queue_.front();
  queue_.pop_front();
  Entry& e = entries_.at(fp);
  e.state = State::kLeased;
  ++leased_;
  out = e.cell;
  return true;
}

void BacklogScheduler::requeue(std::uint64_t fp) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(fp);
  if (it == entries_.end() || it->second.state != State::kLeased) return;
  it->second.state = State::kPending;
  --leased_;
  queue_.push_back(fp);
  ++counters_.requeued;
}

bool BacklogScheduler::complete(std::uint64_t fp,
                                const std::vector<double>& ipc) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(fp);
  if (it == entries_.end() || it->second.state == State::kPoisoned) {
    // A reassigned straggler finished after its replacement (or after
    // the cell was poisoned): ignore it so a cell can never be
    // answered twice with different provenance.
    if (it != entries_.end() || done_.count(fp) != 0) {
      ++counters_.duplicate_completions;
    }
    return false;
  }
  if (it->second.state == State::kLeased) {
    --leased_;
  } else {
    // Completed without a pop (shouldn't happen, but keep the queue
    // consistent if it does).
    for (auto q = queue_.begin(); q != queue_.end(); ++q) {
      if (*q == fp) {
        queue_.erase(q);
        break;
      }
    }
  }
  entries_.erase(it);
  done_.emplace(fp, ipc);
  journal_append_locked(fp, ipc);
  ++counters_.completed;
  return true;
}

void BacklogScheduler::poison(std::uint64_t fp, const std::string& error) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(fp);
  if (it == entries_.end()) return;
  Entry& e = it->second;
  if (e.state == State::kPoisoned) return;
  if (e.state == State::kLeased) {
    --leased_;
  } else {
    for (auto q = queue_.begin(); q != queue_.end(); ++q) {
      if (*q == fp) {
        queue_.erase(q);
        break;
      }
    }
  }
  e.state = State::kPoisoned;
  e.cell = BacklogCell{};
  e.error = error;
  ++counters_.poisoned;
}

BacklogScheduler::State BacklogScheduler::state(std::uint64_t fp) const {
  const std::lock_guard<std::mutex> lock(mu_);
  if (done_.count(fp) != 0) return State::kDone;
  const auto it = entries_.find(fp);
  return it == entries_.end() ? State::kUnknown : it->second.state;
}

bool BacklogScheduler::result(std::uint64_t fp,
                              std::vector<double>& ipc) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = done_.find(fp);
  if (it == done_.end()) return false;
  ipc = it->second;
  return true;
}

std::string BacklogScheduler::poison_error(std::uint64_t fp) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(fp);
  if (it == entries_.end() || it->second.state != State::kPoisoned) {
    return "";
  }
  return it->second.error;
}

std::size_t BacklogScheduler::backlog() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return backlog_unlocked();
}

std::size_t BacklogScheduler::pending() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

BacklogScheduler::Counters BacklogScheduler::counters() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::uint64_t BacklogScheduler::journal_stale_reaped() const {
  return journal_->stale_reaped();
}
std::uint64_t BacklogScheduler::journal_discarded_bytes() const {
  return journal_->discarded_tail_bytes();
}
std::uint64_t BacklogScheduler::journal_append_failures() const {
  return journal_->append_failures();
}
std::size_t BacklogScheduler::journal_replayed() const {
  return journal_->replayed_cells();
}

void BacklogScheduler::journal_append_locked(
    std::uint64_t fp, const std::vector<double>& ipc) {
  if (journal_->enabled()) journal_->append(fp, ipc);
}

}  // namespace snug::sim::service
