#include "sim/warm_state.hpp"

#include <cstdlib>

#include "common/rng.hpp"
#include "common/str.hpp"

namespace snug::sim {

WarmStateBank::WarmStateBank(std::string dir)
    : store_(std::move(dir),
             BlobFormat{kMagic, kVersion, ".snugw", 1, kMaxBytes}) {}

bool WarmStateBank::load(const std::string& key, std::uint64_t fingerprint,
                         std::vector<std::byte>& blob) const {
  return store_.tryGet(key, fingerprint, blob);
}

void WarmStateBank::store(const std::string& key, std::uint64_t fingerprint,
                          const std::vector<std::byte>& blob) const {
  store_.insert(key, fingerprint, blob.data(), blob.size());
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
  //     DSR's classifier block enter only for their own scheme, so e.g.
  //     CC(30%) points running under different SNUG monitor or DSR
  //     counter settings share one checkpoint.
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
    d += strf("|snug=%llu/%llu/k%u/p%u/m%u/b%d/f%d|rlat=%llu",
              u(snug.epochs.identify_cycles), u(snug.epochs.group_cycles),
              snug.monitor.k_bits, snug.monitor.p, snug.monitor.num_sets,
              snug.monitor.taker_biased ? 1 : 0, snug.flip_enabled ? 1 : 0,
              u(cfg.scheme_ctx.priv.lat.remote_lookup_snug));
  }
  if (spec.kind == schemes::SchemeKind::kDSR) {
    const auto& dsr = cfg.scheme_ctx.dsr;
    d += strf("|dsr=%u/%u|dsre=%llu/%llu", dsr.k_bits, dsr.p,
              u(dsr.epochs.identify_cycles), u(dsr.epochs.group_cycles));
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
