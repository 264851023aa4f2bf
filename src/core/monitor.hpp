// CapacityMonitor — the per-slice demand-identification hardware
// (paper Section 3.1): one shadow set per L2 set, plus k-bit saturating
// counters with mod-p dividers at one of two granularities: one per set
// (SNUG) or one for the whole cache (DSR's application-level roles).
//
// Event wiring (driven by schemes/classifying_base.cpp):
//   local L2 hit            -> on_local_hit(set)
//   local L2 miss           -> on_local_miss(set, tag)   [probes shadow]
//   local line evicted      -> on_local_eviction(set, tag)
//   line enters real set    -> exclusivity is guaranteed because every fill
//                              is preceded by on_local_miss, which removes
//                              a matching shadow entry.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/state_io.hpp"
#include "core/gt_vector.hpp"
#include "core/saturating_counter.hpp"
#include "core/shadow_set.hpp"
#include "stats/counters.hpp"

namespace snug::core {

struct MonitorConfig {
  std::uint32_t num_sets = 1024;
  std::uint32_t assoc = 16;   ///< shadow associativity == L2 associativity
  std::uint32_t k_bits = 4;   ///< saturating-counter width (Table 2)
  std::uint32_t p = 8;        ///< hit-rate threshold 1/p (Table 2)
  /// Counter reset point: true (default) starts at 2^(k-1) so sets with
  /// no evidence stay takers (safe); false is the paper's 2^(k-1)-1.
  bool taker_biased = true;
};

/// How many sets one saturating counter and its divider cover.
enum class Granularity : std::uint8_t {
  kSet,    ///< one counter per set: SNUG's set-level G/T classification
  kCache,  ///< one counter for every set: DSR's spiller/receiver role
};

/// Monitor event counters as SoA words (stats/counters.hpp).
struct MonitorStats final : stats::CounterWords<MonitorStats, 3> {
  enum : std::size_t { kShadowHits, kShadowInserts, kRealHits };
  static constexpr std::array<std::string_view, kNumWords> kNames = {
      "shadow_hits", "shadow_inserts", "real_hits"};
  SNUG_COUNTER(shadow_hits, kShadowHits)
  SNUG_COUNTER(shadow_inserts, kShadowInserts)
  SNUG_COUNTER(real_hits, kRealHits)
};

class CapacityMonitor {
 public:
  explicit CapacityMonitor(const MonitorConfig& cfg,
                           Granularity granularity = Granularity::kSet);

  /// Enables/disables counter updates (Stage I only; shadow-tag upkeep
  /// continues regardless so exclusivity never lapses).
  void set_counting(bool on) noexcept { counting_ = on; }
  [[nodiscard]] bool counting() const noexcept { return counting_; }

  void on_local_hit(SetIndex set);

  /// Probes (and on a hit removes) the shadow entry for `tag`.  Returns
  /// true when the miss would have been a hit with double capacity.
  bool on_local_miss(SetIndex set, std::uint64_t tag);

  void on_local_eviction(SetIndex set, std::uint64_t tag);

  /// Harvests the G/T classification from the counter MSBs into `out` and
  /// resets the counters for the next sampling period.  Under
  /// Granularity::kCache every set receives the one counter's bit.
  void harvest(GtVector& out);

  [[nodiscard]] const MonitorStats& stats() const noexcept { return stats_; }
  /// The counter that classifies `set` (the same one for every set
  /// under Granularity::kCache).
  [[nodiscard]] const SaturatingCounter& counter(SetIndex set) const;
  [[nodiscard]] Granularity granularity() const noexcept {
    return counter_mask_ == 0 ? Granularity::kCache : Granularity::kSet;
  }
  [[nodiscard]] const ShadowSetArray& shadows() const noexcept {
    return shadows_;
  }
  [[nodiscard]] const MonitorConfig& config() const noexcept { return cfg_; }

  void reset();

  /// Warm-state serialization: shadow tags, counter values, divider
  /// phases and the counting flag round-trip bit-exactly for a monitor
  /// of identical MonitorConfig and granularity (guarded by the
  /// warm-state bank fingerprint).  Event stats are NOT saved, and
  /// nothing resets them: they stay cumulative across
  /// CmpSystem::begin_measurement, so a window count is the difference
  /// of a read before the boundary and one after it.
  void save_state(StateWriter& w) const;
  void load_state(StateReader& r);

 private:
  MonitorConfig cfg_;
  ShadowSetArray shadows_;
  /// `set & counter_mask_` indexes counters_ and dividers_: all ones
  /// for one counter per set, zero for one counter per cache.
  SetIndex counter_mask_;
  std::vector<SaturatingCounter> counters_;
  std::vector<ModPCounter> dividers_;
  MonitorStats stats_;
  bool counting_ = true;
};

}  // namespace snug::core
