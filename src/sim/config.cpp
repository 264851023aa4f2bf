#include "sim/config.hpp"

#include <cstdlib>

#include "common/rng.hpp"
#include "common/str.hpp"

namespace snug::sim {

void RunScale::scale_by(std::uint64_t factor) {
  warmup_cycles *= factor;
  measure_cycles *= factor;
  phase_period_refs *= factor;
}

SystemConfig paper_system_config() {
  SystemConfig cfg;
  // Core (Table 4): issue/commit 8/8, RUU 128, LSQ 64, 3-cycle branch
  // penalty.  code_blocks is overridden per benchmark at system build.
  cfg.core.issue_width = 8;
  cfg.core.rob_entries = 128;
  cfg.core.lsq_entries = 64;
  cfg.core.branch_penalty = 3;

  // Private slices: 1 MB 16-way 64 B; shared aggregate: 4 MB.
  cfg.scheme_ctx.priv.num_cores = cfg.num_cores;
  cfg.scheme_ctx.priv.l2 = cache::CacheGeometry(1 << 20, 16, 64);
  cfg.scheme_ctx.shared.num_cores = cfg.num_cores;
  cfg.scheme_ctx.shared.l2 = cache::CacheGeometry(4 << 20, 16, 64);

  // SNUG monitor mirrors the slice geometry; k = 4, p = 8 (Table 2).
  cfg.scheme_ctx.snug.monitor.num_sets =
      cfg.scheme_ctx.priv.l2.num_sets();
  cfg.scheme_ctx.snug.monitor.assoc =
      cfg.scheme_ctx.priv.l2.associativity();
  cfg.scheme_ctx.snug.monitor.k_bits = 4;
  cfg.scheme_ctx.snug.monitor.p = 8;
  // See core::EpochConfig: 1.5 M identify / 6 M group at default scale;
  // SNUG_FULL_SCALE=1 restores the paper's 5 M / 100 M epochs.
  cfg.scheme_ctx.snug.epochs = core::EpochConfig{};
  if (const char* env = std::getenv("SNUG_FULL_SCALE");
      env != nullptr && env[0] == '1') {
    cfg.scheme_ctx.snug.epochs.identify_cycles = 5'000'000;
    cfg.scheme_ctx.snug.epochs.group_cycles = 100'000'000;
  }
  return cfg;
}

RunScale default_run_scale() {
  RunScale scale;
  const char* env = std::getenv("SNUG_FULL_SCALE");
  if (env != nullptr && env[0] == '1') {
    // Paper-scale epochs are 5 M + 100 M; cover a full period.
    scale.warmup_cycles = 8'000'000;
    scale.measure_cycles = 110'000'000;
    scale.phase_period_refs = 800'000;
  }
  return scale;
}

std::uint64_t config_fingerprint(const SystemConfig& cfg,
                                 const RunScale& scale) {
  // Version salt: bump when the simulator's timing semantics change so
  // stale cache entries are never reused.  v5 covers every SystemConfig
  // field a ScenarioSpec can reach — full L1I/L1D and shared-L2
  // geometries, the core pipeline, WBB, latencies and the scheme
  // ablation knobs — not just the quad-core-era subset.
  const auto u = [](auto v) { return static_cast<unsigned long long>(v); };
  std::string descriptor = strf(
      "v5|cores=%u|l2=%llu/%u/%u|l2s=%llu/%u|l1i=%llu/%u|l1d=%llu/%u|"
      "bus=%u:%u:%u:%u|dram=%llu/%u/%llu",
      cfg.num_cores, u(cfg.scheme_ctx.priv.l2.capacity_bytes()),
      cfg.scheme_ctx.priv.l2.associativity(),
      cfg.scheme_ctx.priv.l2.line_bytes(),
      u(cfg.scheme_ctx.shared.l2.capacity_bytes()),
      cfg.scheme_ctx.shared.l2.associativity(),
      u(cfg.l1i.capacity_bytes()), cfg.l1i.associativity(),
      u(cfg.l1d.capacity_bytes()), cfg.l1d.associativity(),
      cfg.bus.width_bytes, cfg.bus.speed_ratio, cfg.bus.arb_cycles,
      cfg.bus.block_bytes, u(cfg.dram.latency), cfg.dram.channels,
      u(cfg.dram.occupancy));
  descriptor += strf(
      "|core=%u/%u/%u/%llu|wbb=%u/%llu/%llu|lat=%llu/%llu/%llu/%llu/%llu",
      cfg.core.issue_width, cfg.core.rob_entries, cfg.core.lsq_entries,
      u(cfg.core.branch_penalty), cfg.scheme_ctx.priv.wbb.entries,
      u(cfg.scheme_ctx.priv.wbb.drain_interval),
      u(cfg.scheme_ctx.priv.wbb.full_penalty),
      u(cfg.scheme_ctx.priv.lat.l1_hit), u(cfg.scheme_ctx.priv.lat.l2_local),
      u(cfg.scheme_ctx.priv.lat.remote_lookup_cc),
      u(cfg.scheme_ctx.priv.lat.remote_lookup_snug),
      u(cfg.scheme_ctx.priv.lat.l2s_remote));
  // "a0" and the DSR "/0/32/10" tail are retired knobs (SNUG's
  // monitor-always ablation, DSR's set-dueling variant) written as their
  // former defaults, so no published eval-cache key moves.
  descriptor += strf(
      "|snug=%llu/%llu/k%u/p%u/m%u/b%d/f%d/a0|dsr=%u/%u/0/32/10"
      "|warm=%llu|meas=%llu|phase=%llu",
      u(cfg.scheme_ctx.snug.epochs.identify_cycles),
      u(cfg.scheme_ctx.snug.epochs.group_cycles),
      cfg.scheme_ctx.snug.monitor.k_bits, cfg.scheme_ctx.snug.monitor.p,
      cfg.scheme_ctx.snug.monitor.num_sets,
      cfg.scheme_ctx.snug.monitor.taker_biased ? 1 : 0,
      cfg.scheme_ctx.snug.flip_enabled ? 1 : 0, cfg.scheme_ctx.dsr.k_bits,
      cfg.scheme_ctx.dsr.p, u(scale.warmup_cycles), u(scale.measure_cycles),
      u(scale.phase_period_refs));
  descriptor += strf("|dsre=%llu/%llu",
                     u(cfg.scheme_ctx.dsr.epochs.identify_cycles),
                     u(cfg.scheme_ctx.dsr.epochs.group_cycles));
  // The warm-up mode extends the descriptor only when non-default:
  // timing (the default) keeps its pre-knob fingerprint, functional
  // warm-up changes simulated history and gets its own cache lineage.
  if (scale.warmup_mode == WarmupMode::kFunctional) {
    descriptor += "|wmode=f";
  }
  return Rng::derive_seed(descriptor);
}

}  // namespace snug::sim
