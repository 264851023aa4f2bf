#include "sim/service/index.hpp"

#include <cstring>

#include "common/crc32.hpp"
#include "sim/runner.hpp"
#include "sim/store_recovery.hpp"

namespace snug::sim::service {
namespace {

// Mirror of the EvalCache entry header (sim/runner.cpp); the layout is
// part of the on-disk format and pinned by eval_cache tests.
struct CacheHeader {
  std::uint32_t magic;
  std::uint32_t version;
  std::uint64_t fingerprint;
  std::uint32_t count;
  std::uint32_t payload_crc;
};
static_assert(sizeof(CacheHeader) == 24, "header layout must be packed");

constexpr std::size_t kInitialSlots = 1024;  // power of two

[[nodiscard]] bool is_entry_name(const std::string& name) {
  return name.size() > 6 && name.rfind(".snugc") == name.size() - 6;
}

}  // namespace

AnswerIndex::AnswerIndex(std::string cache_dir)
    : env_(&fault::env()), dir_(std::move(cache_dir)) {
  slots_.resize(kInitialSlots);
  if (dir_.empty()) return;
  const std::unique_lock<std::shared_mutex> lock(mu_);
  scan_locked();
}

bool AnswerIndex::lookup(std::uint64_t fp, std::vector<double>& ipc) {
  if (fp != 0 && !dir_.empty()) {
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
  if (dir_.empty() || fp == 0 || ipc.empty() ||
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

void AnswerIndex::index_file_locked(const std::string& name) {
  std::vector<std::byte> raw;
  if (!env_->read_file(dir_ + "/" + name, raw)) return;

  const auto corrupt = [&] {
    // Same discipline as EvalCache::load: structurally damaged files
    // are quarantined (never deleted) so they stop shadowing stores.
    if (quarantine_entry(
            *env_, dir_, name,
            quarantine_seq_.fetch_add(1, std::memory_order_relaxed))) {
      ++counters_.quarantined;
    }
    ++counters_.files_rejected;
  };

  if (raw.size() < sizeof(CacheHeader)) return corrupt();
  CacheHeader hdr;
  std::memcpy(&hdr, raw.data(), sizeof hdr);
  if (hdr.magic != EvalCache::kMagic) return corrupt();
  if (hdr.version != EvalCache::kVersion) {
    ++counters_.files_rejected;  // stale, not corrupt — leave in place
    return;
  }
  if (hdr.count == 0 || hdr.count > EvalCache::kMaxEntries) {
    return corrupt();
  }
  const std::size_t payload_bytes = hdr.count * sizeof(double);
  if (raw.size() != sizeof hdr + payload_bytes) return corrupt();
  if (crc32c(raw.data() + sizeof hdr, payload_bytes) != hdr.payload_crc) {
    return corrupt();
  }
  std::vector<double> ipc(hdr.count);
  std::memcpy(ipc.data(), raw.data() + sizeof hdr, payload_bytes);
  insert_locked(hdr.fingerprint, ipc.data(), hdr.count);
  ++counters_.files_indexed;
}

void AnswerIndex::scan_locked() {
  for (const std::string& name : env_->list_dir(dir_)) {
    if (is_entry_name(name)) index_file_locked(name);
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
