#include "sim/blob_store.hpp"

#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/crc32.hpp"
#include "common/str.hpp"
#include "common/temp_name.hpp"

namespace snug::sim {
namespace {

struct BlobHeader {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t fingerprint = 0;
  std::uint32_t count = 0;
  std::uint32_t payload_crc = 0;  ///< CRC-32C of the payload bytes
};
static_assert(sizeof(BlobHeader) == 24, "header layout must be packed");

enum class Verdict {
  kOk,
  kStale,    ///< a valid file answering a different question: leave it
  kCorrupt,  ///< can never be valid: quarantine it
};

/// Classifies an entry by its header alone; `fingerprint` null accepts
/// the header's own (the scan).
Verdict check_header(const BlobFormat& format,
                     const std::vector<std::byte>& raw,
                     const std::uint64_t* fingerprint, BlobHeader& hdr) {
  if (raw.size() < sizeof hdr) return Verdict::kCorrupt;
  std::memcpy(&hdr, raw.data(), sizeof hdr);
  if (hdr.magic != format.magic) return Verdict::kCorrupt;
  if (hdr.version != format.version ||
      (fingerprint != nullptr && hdr.fingerprint != *fingerprint)) {
    return Verdict::kStale;
  }
  if (hdr.count == 0 || hdr.count > format.max_count) {
    return Verdict::kCorrupt;
  }
  return Verdict::kOk;
}

/// Classifies a whole entry file: the header, then exact size and CRC.
Verdict check(const BlobFormat& format, const std::vector<std::byte>& raw,
              const std::uint64_t* fingerprint, BlobHeader& hdr) {
  const Verdict verdict = check_header(format, raw, fingerprint, hdr);
  if (verdict != Verdict::kOk) return verdict;
  const std::size_t payload_bytes =
      std::size_t{hdr.count} * format.elem_bytes;
  if (raw.size() != sizeof hdr + payload_bytes) {
    return Verdict::kCorrupt;  // truncated (short write) or trailing bytes
  }
  if (crc32c(raw.data() + sizeof hdr, payload_bytes) != hdr.payload_crc) {
    return Verdict::kCorrupt;  // bit rot / torn payload
  }
  return Verdict::kOk;
}

/// Process-wide sequence behind quarantine names, so no two stores of
/// one process ever move an entry onto the same name.
std::atomic<std::uint64_t> g_quarantine_seq{0};

/// Bounds `<dir>/quarantine/` to kQuarantineCap entries (the Env has no
/// mtime, so the sorted scan order stands in for age).  Returns the
/// number removed.
std::uint64_t bound_quarantine(const fault::Env& env,
                               const std::string& dir) {
  const std::string qdir = dir + "/quarantine";
  const std::vector<std::string> names = env.list_dir(qdir);  // sorted
  if (names.size() <= kQuarantineCap) return 0;
  const std::uint64_t surplus = names.size() - kQuarantineCap;
  for (std::uint64_t i = 0; i < surplus; ++i) {
    env.remove(qdir + "/" + names[i]);
  }
  std::fprintf(stderr,
               "snug: quarantine bound: removed %llu oldest of %zu "
               "entries in %s (cap %zu)\n",
               static_cast<unsigned long long>(surplus), names.size(),
               qdir.c_str(), kQuarantineCap);
  return surplus;
}

}  // namespace

bool pid_alive(long pid) {
  if (pid <= 0) return false;
  if (::kill(static_cast<pid_t>(pid), 0) == 0) return true;
  return errno == EPERM;
}

bool publish_atomic(const fault::Env& env, const std::string& path,
                    const std::byte* data, std::size_t n) {
  const std::string tmp = temp_name(path);
  if (env.write_file(tmp, data, n) && env.rename(tmp, path)) return true;
  env.remove(tmp);  // ENOSPC-style partial file or failed rename
  return false;
}

bool publish_verified(const fault::Env& env, const std::string& path,
                      const std::byte* data, std::size_t n) {
  const std::string tmp = temp_name(path);
  // Read back before renaming: write_file reporting success does not
  // mean the bytes landed (ENOSPC tails, torn writes).  Wire files carry
  // no checksum, so this read-back IS the integrity check — a torn temp
  // is discarded here, never published.
  std::vector<std::byte> on_disk;
  if (env.write_file(tmp, data, n) && env.read_file(tmp, on_disk) &&
      on_disk.size() == n && std::memcmp(on_disk.data(), data, n) == 0 &&
      env.rename(tmp, path)) {
    return true;
  }
  env.remove(tmp);
  return false;
}

std::uint64_t reap_orphaned_temps(const fault::Env& env,
                                  const std::string& dir) {
  std::uint64_t reaped = 0;
  for (const std::string& name : env.list_dir(dir)) {
    if (name.find(".tmp.") == std::string::npos) continue;
    std::string_view stem;
    long pid = 0;
    if (split_temp_name(name, stem, pid) && pid_alive(pid)) continue;
    env.remove(dir + "/" + name);
    ++reaped;
  }
  return reaped;
}

BlobStore::BlobStore(std::string dir, const BlobFormat& format)
    : env_(&fault::env()), dir_(std::move(dir)), format_(format) {
  if (dir_.empty()) return;
  if (!env_->create_directories(dir_)) {
    dir_.clear();  // fall back to store-less operation
    return;
  }
  reaped_temps_ = reap_orphaned_temps(*env_, dir_);
  quarantine_trimmed_ = bound_quarantine(*env_, dir_);
}

void BlobStore::quarantine(const std::string& name) const {
  const std::string qdir = dir_ + "/quarantine";
  if (!env_->create_directories(qdir)) return;
  const std::string qpath =
      strf("%s/%s.%ld.%llu", qdir.c_str(), name.c_str(),
           static_cast<long>(::getpid()),
           static_cast<unsigned long long>(
               g_quarantine_seq.fetch_add(1, std::memory_order_relaxed)));
  if (env_->rename(dir_ + "/" + name, qpath)) {
    quarantined_.fetch_add(1, std::memory_order_relaxed);
  }
}

void BlobStore::insert(const std::string& key, std::uint64_t fingerprint,
                       const void* payload, std::size_t count) const {
  if (dir_.empty() || count == 0 || count > format_.max_count) return;
  const std::size_t payload_bytes = count * format_.elem_bytes;
  BlobHeader hdr;
  hdr.magic = format_.magic;
  hdr.version = format_.version;
  hdr.fingerprint = fingerprint;
  hdr.count = static_cast<std::uint32_t>(count);
  hdr.payload_crc = crc32c(payload, payload_bytes);
  std::vector<std::byte> raw(sizeof hdr + payload_bytes);
  std::memcpy(raw.data(), &hdr, sizeof hdr);
  std::memcpy(raw.data() + sizeof hdr, payload, payload_bytes);
  publish_atomic(*env_, dir_ + "/" + entry_name(key), raw.data(),
                 raw.size());  // best-effort: a failed store just misses
}

bool BlobStore::tryGet(const std::string& key, std::uint64_t fingerprint,
                       std::vector<std::byte>& payload) const {
  if (dir_.empty()) return false;
  const std::string name = entry_name(key);
  std::vector<std::byte> raw;
  if (!env_->read_file(dir_ + "/" + name, raw)) return false;
  BlobHeader hdr;
  switch (check(format_, raw, &fingerprint, hdr)) {
    case Verdict::kStale:
      return false;
    case Verdict::kCorrupt:
      quarantine(name);
      return false;
    case Verdict::kOk:
      break;
  }
  raw.erase(raw.begin(), raw.begin() + sizeof hdr);
  payload = std::move(raw);
  return true;
}

bool BlobStore::probe(const std::string& key,
                      std::uint64_t fingerprint) const {
  if (dir_.empty()) return false;
  std::vector<std::byte> raw;
  BlobHeader hdr;
  return env_->read_file(dir_ + "/" + entry_name(key), raw,
                         sizeof(BlobHeader)) &&
         check_header(format_, raw, &fingerprint, hdr) == Verdict::kOk;
}

BlobStore::ScanCounts BlobStore::scan(
    const std::function<void(std::uint64_t, const std::byte*,
                             std::uint32_t)>& visit) const {
  ScanCounts counts;
  if (dir_.empty()) return counts;
  const std::string suffix = format_.suffix;
  for (const std::string& name : env_->list_dir(dir_)) {
    // Published entries only: temps are in-flight stores, and anything
    // else in the directory is not this view's.
    if (name.size() <= suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    std::vector<std::byte> raw;
    if (!env_->read_file(dir_ + "/" + name, raw)) continue;
    BlobHeader hdr;
    const Verdict verdict = check(format_, raw, nullptr, hdr);
    if (verdict != Verdict::kOk) {
      if (verdict == Verdict::kCorrupt) quarantine(name);
      ++counts.rejected;
      continue;
    }
    visit(hdr.fingerprint, raw.data() + sizeof hdr, hdr.count);
    ++counts.indexed;
  }
  return counts;
}

}  // namespace snug::sim
