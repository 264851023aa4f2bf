#include "sim/journal.hpp"

#include <unistd.h>

#include <cstdlib>
#include <cstring>

#include "common/crc32.hpp"
#include "common/str.hpp"
#include "sim/blob_store.hpp"
#include "sim/runner.hpp"

namespace snug::sim {
namespace {

struct JournalHeader {
  std::uint32_t magic = CampaignJournal::kMagic;
  std::uint32_t version = CampaignJournal::kVersion;
  std::uint64_t campaign_fp = 0;
};
static_assert(sizeof(JournalHeader) == 16, "header layout must be packed");

/// Removes `<journal>.stale.<pid>` siblings — journals a prior open
/// moved aside as belonging to another campaign — once their writer is
/// dead (unparseable pids count as dead).  Returns the number removed.
std::uint64_t reap_stale_journals(const fault::Env& env,
                                  const std::string& journal_path) {
  const std::size_t slash = journal_path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : journal_path.substr(0, slash);
  const std::string base = slash == std::string::npos
                               ? journal_path
                               : journal_path.substr(slash + 1);
  const std::string prefix = base + ".stale.";
  std::uint64_t reaped = 0;
  for (const std::string& name : env.list_dir(dir)) {
    if (name.rfind(prefix, 0) != 0) continue;
    char* end = nullptr;
    const std::string pid_str = name.substr(prefix.size());
    const long pid = std::strtol(pid_str.c_str(), &end, 10);
    if (end != nullptr && *end == '\0' && pid_alive(pid)) continue;
    env.remove(dir + "/" + name);
    ++reaped;
  }
  return reaped;
}

}  // namespace

CampaignJournal::CampaignJournal(std::string path,
                                 std::uint64_t campaign_fingerprint)
    : env_(&fault::env()),
      path_(std::move(path)),
      campaign_fp_(campaign_fingerprint) {
  if (path_.empty()) return;
  // Dead writers' `.stale.<pid>` siblings (foreign journals a prior
  // open moved aside) have served their purpose; reap them like
  // orphaned temps so a long-lived journal directory stays bounded.
  stale_reaped_ = reap_stale_journals(*env_, path_);

  std::vector<std::byte> raw;
  if (!env_->read_file(path_, raw) || raw.empty()) {
    start_fresh();
    return;
  }

  JournalHeader hdr;
  const bool header_ok = raw.size() >= sizeof hdr &&
                         (std::memcpy(&hdr, raw.data(), sizeof hdr), true) &&
                         hdr.magic == kMagic && hdr.version == kVersion &&
                         hdr.campaign_fp == campaign_fp_;
  if (!header_ok) {
    // Another campaign's (or era's) journal: move it aside — its
    // progress is not ours to destroy — and start fresh.
    reset_stale_ = true;
    env_->rename(path_, strf("%s.stale.%ld", path_.c_str(),
                             static_cast<long>(::getpid())));
    start_fresh();
    return;
  }

  // Replay the valid record prefix; the first frame that fails any
  // check — short, implausible length, CRC mismatch, inconsistent
  // count — is a torn tail (a killed appender) and everything from it
  // on is discarded.
  std::size_t off = sizeof hdr;
  std::size_t valid_end = off;
  while (off + 8 <= raw.size()) {
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
    std::memcpy(&len, raw.data() + off, 4);
    std::memcpy(&crc, raw.data() + off + 4, 4);
    if (len < 12 || len > 12 + std::size_t{EvalCache::kMaxEntries} * 8 ||
        off + 8 + len > raw.size()) {
      break;
    }
    const std::byte* payload = raw.data() + off + 8;
    if (crc32c(payload, len) != crc) break;
    std::uint64_t fp = 0;
    std::uint32_t count = 0;
    std::memcpy(&fp, payload, 8);
    std::memcpy(&count, payload + 8, 4);
    if (count == 0 || count > EvalCache::kMaxEntries ||
        len != 12 + count * 8) {
      break;
    }
    std::vector<double> ipc(count);
    std::memcpy(ipc.data(), payload + 12, count * 8);
    records_[fp] = std::move(ipc);
    off += 8 + len;
    valid_end = off;
  }

  image_.assign(raw.begin(), raw.begin() + valid_end);
  if (valid_end != raw.size()) {
    // Atomically rewrite without the torn tail.
    discarded_tail_bytes_ = raw.size() - valid_end;
    if (publish_atomic(*env_, path_, raw.data(), valid_end)) return;
    // Rewrite failed: appending after a torn tail would bury good
    // frames behind a bad one (replay stops at the first bad frame),
    // so disable appends — the already-replayed records stay usable.
    path_.clear();
  }
}

void CampaignJournal::start_fresh() {
  JournalHeader hdr;
  hdr.campaign_fp = campaign_fp_;
  std::vector<std::byte> raw(sizeof hdr);
  std::memcpy(raw.data(), &hdr, sizeof hdr);
  if (!env_->write_file(path_, raw.data(), raw.size())) {
    path_.clear();  // journalling stays best-effort
    return;
  }
  image_ = std::move(raw);
}

bool CampaignJournal::lookup(std::uint64_t run_fingerprint,
                             std::vector<double>& ipc) const {
  const auto it = records_.find(run_fingerprint);
  if (it == records_.end()) return false;
  ipc = it->second;
  return true;
}

void CampaignJournal::append(std::uint64_t run_fingerprint,
                             const std::vector<double>& ipc) {
  if (path_.empty() || ipc.empty() || ipc.size() > EvalCache::kMaxEntries) {
    return;
  }

  const std::uint32_t count = static_cast<std::uint32_t>(ipc.size());
  const std::uint32_t len = 12 + count * 8;
  std::vector<std::byte> frame(8 + len);
  std::memcpy(frame.data() + 8, &run_fingerprint, 8);
  std::memcpy(frame.data() + 16, &count, 4);
  std::memcpy(frame.data() + 20, ipc.data(), std::size_t{count} * 8);
  const std::uint32_t crc = crc32c(frame.data() + 8, len);
  std::memcpy(frame.data(), &len, 4);
  std::memcpy(frame.data() + 4, &crc, 4);

  const std::lock_guard<std::mutex> lock(append_mu_);
  if (env_->append_file(path_, frame.data(), frame.size())) {
    image_.insert(image_.end(), frame.begin(), frame.end());
    return;
  }
  ++append_failures_;
  // A failed append (e.g. ENOSPC) can leave a partial frame on disk,
  // and replay stops at the first bad frame — every LATER successful
  // append would be buried behind it.  Repair by atomically rewriting
  // the known-good image (header + whole frames); if even that fails,
  // disable appends rather than keep corrupting the tail.
  if (!publish_atomic(*env_, path_, image_.data(), image_.size())) {
    path_.clear();
  }
}

}  // namespace snug::sim
