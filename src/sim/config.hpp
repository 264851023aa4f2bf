// System configuration (paper Table 4) and run scaling.
//
// Paper scale: 6 G cycles of fast-forward + 3 G cycles of detailed
// simulation, 5 M-cycle identification epochs and 100 M-cycle grouping
// epochs.  Those lengths exist to span SPEC program phases; our synthetic
// phases are stationary by construction, so the default scale divides the
// epochs by 64 and runs windows of a few million cycles — every scheme
// sees identical streams, so relative orderings are preserved.  Set
// SNUG_FULL_SCALE=1 (or use --full-scale in the benches) for paper-scale
// epochs and proportionally longer windows.
#pragma once

#include <cstdint>

#include "bus/snoop_bus.hpp"
#include "cache/geometry.hpp"
#include "cpu/core.hpp"
#include "dram/dram.hpp"
#include "schemes/factory.hpp"
#include "trace/workloads.hpp"

namespace snug::sim {

struct SystemConfig {
  std::uint32_t num_cores = 4;
  cpu::CoreConfig core;                      ///< 8-wide, ROB 128, LSQ 64
  cache::CacheGeometry l1i{32 << 10, 4, 64}; ///< 32 KB 4-way
  cache::CacheGeometry l1d{32 << 10, 4, 64};
  schemes::SchemeBuildContext scheme_ctx;    ///< L2 slices / shared L2
  bus::BusConfig bus;                        ///< 16 B, 4:1, 1-cycle arb
  dram::DramConfig dram;                     ///< 300-cycle latency
};

/// How the warm-up phase is driven (scenario knob `warmup-mode=`).
enum class WarmupMode : std::uint8_t {
  /// Full-timing warm-up: the same event-skipping loop as measurement
  /// (bus arbitration, DRAM slots, WBB drains, ROB occupancy).
  kTiming,
  /// Functional fast-forward: cache contents and scheme epoch state are
  /// driven, all timing machinery is skipped
  /// (CmpSystem::warm_functional); the run switches to full timing at
  /// the measurement boundary.  Post-warm-up state is closed and
  /// serializable, which is what enables the warm-state bank.
  kFunctional,
};

struct RunScale {
  /// The first G/T harvest happens on a cold cache (compulsory misses
  /// only) and classifies almost everything as giver; warm-up must reach
  /// past the *second* harvest (identify + group + identify at default
  /// epochs) so measurement sees steady-state grouping — the equivalent
  /// of the paper's 6 G-cycle fast-forward.
  Cycle warmup_cycles = 9'000'000;
  /// One full SNUG period (group + identify) at default epochs.
  Cycle measure_cycles = 7'500'000;
  std::uint64_t phase_period_refs = 80'000;
  WarmupMode warmup_mode = WarmupMode::kTiming;

  /// Multiplies every time-like length by `factor` (used for
  /// --full-scale).
  void scale_by(std::uint64_t factor);
};

/// Table 4 configuration with default-scale SNUG epochs.
[[nodiscard]] SystemConfig paper_system_config();

/// Default run scale; honours SNUG_FULL_SCALE=1 in the environment.
[[nodiscard]] RunScale default_run_scale();

/// A compact fingerprint of (config, scale) for the results cache.
[[nodiscard]] std::uint64_t config_fingerprint(const SystemConfig& cfg,
                                               const RunScale& scale);

}  // namespace snug::sim
