#include "sim/service/backlog.hpp"

#include <algorithm>

namespace snug::sim::service {

BacklogScheduler::BacklogScheduler(std::size_t max_pending)
    : max_pending_(max_pending) {}

bool BacklogScheduler::admit(const std::vector<BacklogCell>& cells,
                             std::vector<std::uint64_t>* newly_pending) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<const BacklogCell*> fresh;
  for (const BacklogCell& cell : cells) {
    if (entries_.count(cell.fp) != 0) {
      ++counters_.deduplicated;
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

bool BacklogScheduler::next_pending(BacklogCell& out) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (queue_.empty()) return false;
  const std::uint64_t fp = queue_.front();
  queue_.pop_front();
  Entry& e = entries_.at(fp);
  e.state = State::kRunning;
  ++running_;
  out = e.cell;
  return true;
}

void BacklogScheduler::complete(std::uint64_t fp) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(fp);
  if (it == entries_.end() || it->second.state != State::kRunning) return;
  --running_;
  entries_.erase(it);
  ++counters_.completed;
}

void BacklogScheduler::poison(std::uint64_t fp, const std::string& error) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(fp);
  if (it == entries_.end()) return;
  Entry& e = it->second;
  if (e.state == State::kPoisoned) return;
  unqueue_locked(fp, e.state);
  e.state = State::kPoisoned;
  e.cell = BacklogCell{};
  e.error = error;
  ++counters_.poisoned;
}

void BacklogScheduler::unqueue_locked(std::uint64_t fp, State state) {
  if (state == State::kRunning) {
    --running_;
    return;
  }
  const auto q = std::find(queue_.begin(), queue_.end(), fp);
  if (q != queue_.end()) queue_.erase(q);
}

BacklogScheduler::State BacklogScheduler::state(std::uint64_t fp) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(fp);
  return it == entries_.end() ? State::kUnknown : it->second.state;
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

}  // namespace snug::sim::service
