#include "sim/warm_state.hpp"

#include <unistd.h>

#include <cstdlib>
#include <cstring>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "common/str.hpp"
#include "sim/store_recovery.hpp"

namespace snug::sim {
namespace {

// Host-endian, like EvalCache's CacheHeader: the magic word doubles as
// an endianness check because a byte-swapped header can never match.
struct BankHeader {
  std::uint32_t magic = WarmStateBank::kMagic;
  std::uint32_t version = WarmStateBank::kVersion;
  std::uint64_t fingerprint = 0;
  std::uint64_t payload_bytes = 0;
  std::uint32_t payload_crc = 0;  ///< CRC-32C of the payload (v2+)
  std::uint32_t reserved = 0;
};
static_assert(sizeof(BankHeader) == 32, "header layout must be packed");

/// How a header (or file prefix) failed validation.
enum class HeaderCheck {
  kOk,
  kStale,    ///< valid file answering a different question: leave it
  kCorrupt,  ///< can never be valid: quarantine it
};

HeaderCheck check_header(const std::vector<std::byte>& raw,
                         std::uint64_t fingerprint, BankHeader& hdr) {
  if (raw.size() < sizeof hdr) return HeaderCheck::kCorrupt;
  std::memcpy(&hdr, raw.data(), sizeof hdr);
  if (hdr.magic != WarmStateBank::kMagic) return HeaderCheck::kCorrupt;
  if (hdr.version != WarmStateBank::kVersion ||
      hdr.fingerprint != fingerprint) {
    return HeaderCheck::kStale;
  }
  if (hdr.payload_bytes == 0 ||
      hdr.payload_bytes > WarmStateBank::kMaxBytes || hdr.reserved != 0) {
    return HeaderCheck::kCorrupt;
  }
  return HeaderCheck::kOk;
}

}  // namespace

WarmStateBank::WarmStateBank(std::string dir)
    : env_(&fault::env()), dir_(std::move(dir)) {
  if (!dir_.empty()) {
    if (!env_->create_directories(dir_)) {
      dir_.clear();  // fall back to bank-less operation
      return;
    }
    reaped_temps_.store(reap_orphaned_temps(*env_, dir_),
                        std::memory_order_relaxed);
    quarantine_trimmed_.store(bound_quarantine(*env_, dir_),
                              std::memory_order_relaxed);
  }
}

std::string WarmStateBank::entry_path(const std::string& key) const {
  return dir_ + "/" + key + ".snugw";
}

bool WarmStateBank::load(const std::string& key, std::uint64_t fingerprint,
                         std::vector<std::byte>& blob) const {
  if (dir_.empty()) return false;
  std::vector<std::byte> raw;
  if (!env_->read_file(entry_path(key), raw)) return false;

  const auto corrupt = [&] {
    if (quarantine_entry(
            *env_, dir_, key + ".snugw",
            store_seq_.fetch_add(1, std::memory_order_relaxed))) {
      quarantined_.fetch_add(1, std::memory_order_relaxed);
    }
    return false;
  };

  BankHeader hdr;
  switch (check_header(raw, fingerprint, hdr)) {
    case HeaderCheck::kStale:
      return false;
    case HeaderCheck::kCorrupt:
      return corrupt();
    case HeaderCheck::kOk:
      break;
  }
  if (raw.size() != sizeof hdr + hdr.payload_bytes) {
    return corrupt();  // truncated (short write) or trailing garbage
  }
  if (crc32c(raw.data() + sizeof hdr, hdr.payload_bytes) !=
      hdr.payload_crc) {
    return corrupt();  // bit rot / torn payload
  }

  blob.assign(raw.begin() + sizeof hdr, raw.end());
  return true;
}

bool WarmStateBank::contains(const std::string& key,
                             std::uint64_t fingerprint) const {
  if (dir_.empty()) return false;
  std::vector<std::byte> raw;
  if (!env_->read_file(entry_path(key), raw, sizeof(BankHeader))) {
    return false;
  }
  BankHeader hdr;
  // Header-only probe: no CRC/size verdict, and no quarantine — a later
  // full load makes the structural call on the whole file.
  return check_header(raw, fingerprint, hdr) == HeaderCheck::kOk;
}

void WarmStateBank::store(const std::string& key, std::uint64_t fingerprint,
                          const std::vector<std::byte>& blob) const {
  if (dir_.empty() || blob.empty() || blob.size() > kMaxBytes) return;

  BankHeader hdr;
  hdr.fingerprint = fingerprint;
  hdr.payload_bytes = blob.size();
  hdr.payload_crc = crc32c(blob.data(), blob.size());
  std::vector<std::byte> raw(sizeof hdr + blob.size());
  std::memcpy(raw.data(), &hdr, sizeof hdr);
  std::memcpy(raw.data() + sizeof hdr, blob.data(), blob.size());

  // Unique temp name per (process, store) so concurrent writers — threads
  // of one campaign or entirely separate processes — never collide; the
  // final rename is atomic within the bank directory.
  const std::string tmp =
      strf("%s/%s.tmp.%ld.%llu", dir_.c_str(), key.c_str(),
           static_cast<long>(::getpid()),
           static_cast<unsigned long long>(
               store_seq_.fetch_add(1, std::memory_order_relaxed)));
  if (!env_->write_file(tmp, raw.data(), raw.size())) {
    env_->remove(tmp);  // ENOSPC-style partial file: clean up
    return;
  }
  if (!env_->rename(tmp, entry_path(key))) {
    env_->remove(tmp);  // bank stays best-effort
  }
}

std::string default_warm_bank_dir() {
  if (const char* env = std::getenv("SNUG_WARM_BANK_DIR")) return env;
  return ".snug_warm_bank";
}

std::uint64_t warm_fingerprint(const SystemConfig& cfg, const RunScale& scale,
                               const trace::WorkloadCombo& combo,
                               const schemes::SchemeSpec& spec) {
  // w2: hash exactly the inputs the warm-up prefix *reads*, not the full
  // config fingerprint.  The bank only serves warmup-mode=functional
  // checkpoints (ExperimentRunner gates on that), and the functional
  // warm-up provably never consults:
  //   * the WBB config — functional warm-up drops dirty victims to the
  //     shadow DRAM and never inserts into a write-back buffer
  //     (PrivateSchemeBase, save_warm_state asserts the WBBs are empty);
  //   * measure_cycles — the prefix ends at the measurement boundary;
  //   * the core's LSQ depth — the functional cursor replays ROB
  //     back-pressure only;
  //   * another scheme's knobs — SNUG's monitor/epoch/flip block and
  //     DSR's dueling block enter only for their own scheme, so e.g.
  //     CC(30%) points running under different `monitor-sample=`
  //     settings share one checkpoint.
  // Everything else — topology and geometries, the core cadence inputs,
  // the shadow bus/DRAM configs, the latencies the scheme's access path
  // adds to completions, the warm-up length and workload — lands in the
  // descriptor.  Distinct CC thresholds stay distinct (spec.id() is the
  // tail): their spill RNG streams and decisions genuinely diverge.
  const auto u = [](auto v) { return static_cast<unsigned long long>(v); };
  std::string d = strf(
      "w2|cores=%u|l1i=%llu/%u/%u|l1d=%llu/%u/%u|core=%u/%u/%llu/%u/%u/%u|"
      "bus=%u:%u:%u:%u|dram=%llu/%u/%llu|lat=%llu",
      cfg.num_cores, u(cfg.l1i.capacity_bytes()), cfg.l1i.associativity(),
      cfg.l1i.line_bytes(), u(cfg.l1d.capacity_bytes()),
      cfg.l1d.associativity(), cfg.l1d.line_bytes(), cfg.core.issue_width,
      cfg.core.rob_entries, u(cfg.core.branch_penalty),
      cfg.core.instr_bytes, cfg.core.line_bytes, cfg.core.code_blocks,
      cfg.bus.width_bytes, cfg.bus.speed_ratio, cfg.bus.arb_cycles,
      cfg.bus.block_bytes, u(cfg.dram.latency), cfg.dram.channels,
      u(cfg.dram.occupancy), u(cfg.scheme_ctx.priv.lat.l2_local));
  // The L2 the scheme actually fills: the shared organisation for L2S,
  // a private slice per core for everything else.
  if (spec.kind == schemes::SchemeKind::kL2S) {
    d += strf("|l2s=%llu/%u/%u|rlat=%llu",
              u(cfg.scheme_ctx.shared.l2.capacity_bytes()),
              cfg.scheme_ctx.shared.l2.associativity(),
              cfg.scheme_ctx.shared.l2.line_bytes(),
              u(cfg.scheme_ctx.priv.lat.l2s_remote));
  } else {
    d += strf("|l2p=%llu/%u/%u",
              u(cfg.scheme_ctx.priv.l2.capacity_bytes()),
              cfg.scheme_ctx.priv.l2.associativity(),
              cfg.scheme_ctx.priv.l2.line_bytes());
  }
  if (spec.kind == schemes::SchemeKind::kCC ||
      spec.kind == schemes::SchemeKind::kDSR) {
    d += strf("|rlat=%llu", u(cfg.scheme_ctx.priv.lat.remote_lookup_cc));
  }
  if (spec.kind == schemes::SchemeKind::kSNUG) {
    const auto& snug = cfg.scheme_ctx.snug;
    d += strf("|snug=%llu/%llu/k%u/p%u/m%u/b%d/f%d/a%d/s%u|rlat=%llu",
              u(snug.epochs.identify_cycles), u(snug.epochs.group_cycles),
              snug.monitor.k_bits, snug.monitor.p, snug.monitor.num_sets,
              snug.monitor.taker_biased ? 1 : 0, snug.flip_enabled ? 1 : 0,
              snug.monitor_always ? 1 : 0, snug.monitor.sample_period,
              u(cfg.scheme_ctx.priv.lat.remote_lookup_snug));
  }
  if (spec.kind == schemes::SchemeKind::kDSR) {
    const auto& dsr = cfg.scheme_ctx.dsr;
    d += strf("|dsr=%u/%u/%d/%u/%u/s%u|dsre=%llu/%llu", dsr.k_bits, dsr.p,
              dsr.use_set_dueling ? 1 : 0, dsr.leader_sets, dsr.psel_bits,
              dsr.sample_period, u(dsr.epochs.identify_cycles),
              u(dsr.epochs.group_cycles));
  }
  d += strf("|warm=%llu|phase=%llu|wmode=%c", u(scale.warmup_cycles),
            u(scale.phase_period_refs),
            scale.warmup_mode == WarmupMode::kFunctional ? 'f' : 't');
  d += '|';
  d += combo.name;
  for (const auto& bench : combo.benchmarks) {
    d += '|';
    d += bench;
  }
  d += '|';
  d += spec.id();
  return Rng::derive_seed(d, WarmStateBank::kVersion);
}

}  // namespace snug::sim
