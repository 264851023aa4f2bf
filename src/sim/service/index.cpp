#include "sim/service/index.hpp"

#include "sim/runner.hpp"

namespace snug::sim::service {
namespace {

constexpr std::size_t kInitialSlots = 1024;  // power of two

}  // namespace

AnswerIndex::AnswerIndex(const std::string& cache_dir) {
  slots_.resize(kInitialSlots);
  const EvalCache cache(cache_dir);
  const std::unique_lock<std::shared_mutex> lock(mu_);
  const BlobStore::ScanCounts scanned =
      cache.scan([this](std::uint64_t fp, const std::vector<double>& ipc) {
        insert_locked(fp, ipc.data(), static_cast<std::uint32_t>(ipc.size()));
      });
  counters_.files_indexed = scanned.indexed;
  counters_.files_rejected = scanned.rejected;
  counters_.quarantined = cache.recovery().quarantined;
}

bool AnswerIndex::lookup(std::uint64_t fp, std::vector<double>& ipc) {
  if (fp != 0) {
    const std::shared_lock<std::shared_mutex> lock(mu_);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = fp & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.fp == 0) break;
      if (slot.fp == fp) {
        ipc.assign(pool_.begin() + slot.offset,
                   pool_.begin() + slot.offset + slot.count);
        hits_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void AnswerIndex::insert(std::uint64_t fp, const std::vector<double>& ipc) {
  if (fp == 0 || ipc.empty() ||
      ipc.size() > EvalCache::kMaxEntries) {
    return;
  }
  const std::unique_lock<std::shared_mutex> lock(mu_);
  insert_locked(fp, ipc.data(), static_cast<std::uint32_t>(ipc.size()));
}

void AnswerIndex::insert_locked(std::uint64_t fp, const double* ipc,
                                std::uint32_t count) {
  if (used_ + 1 > slots_.size() / 2) grow_locked();
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = fp & mask;; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.fp == fp) return;  // identical by construction — keep first
    if (slot.fp == 0) {
      slot.fp = fp;
      slot.offset = static_cast<std::uint32_t>(pool_.size());
      slot.count = count;
      pool_.insert(pool_.end(), ipc, ipc + count);
      ++used_;
      ++counters_.entries;
      return;
    }
  }
}

void AnswerIndex::grow_locked() {
  std::vector<Slot> old;
  old.swap(slots_);
  slots_.resize(old.size() * 2);
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.fp == 0) continue;
    for (std::size_t i = slot.fp & mask;; i = (i + 1) & mask) {
      if (slots_[i].fp == 0) {
        slots_[i] = slot;
        break;
      }
    }
  }
}

AnswerIndex::Counters AnswerIndex::counters() const {
  const std::shared_lock<std::shared_mutex> lock(mu_);
  Counters c = counters_;
  c.hits = hits_.load(std::memory_order_relaxed);
  c.misses = misses_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace snug::sim::service
