// SNUG — the paper's contribution (Section 3).
//
// Per slice: a CapacityMonitor (shadow sets + saturating counters) and a
// G/T vector.  A global two-stage controller alternates identification
// (counters learn, no spilling) and grouping (spill/receive per the G/T
// vectors using index-bit flipping).
//
// Protocol restrictions implemented exactly as the paper states:
//  * only taker sets spill; only clean victims are spilled (Section 3.3);
//  * a spill lands in a peer's same-index giver set (f=0), else the buddy
//    giver set (f=1), else the peer does not respond (Figure 8);
//  * retrieval searches only giver-marked placements, and the peer that
//    holds the copy forwards it and invalidates (at most one cooperative
//    copy exists on chip);
//  * the SNUG remote access costs 40 cycles instead of 30 — the price of
//    the G/T-vector lookup (Section 4.1).
//
// One clarification the paper leaves open: after regrouping, cooperative
// lines residing in sets that turned from giver to taker would become
// unreachable (retrieval never searches taker sets).  We flush such lines
// at the stage boundary; they are clean by construction, so this is safe,
// and it restores the paper's "at most one unambiguous search" property.
#pragma once

#include <memory>
#include <vector>

#include "core/controller.hpp"
#include "core/grouper.hpp"
#include "core/monitor.hpp"
#include "schemes/private_base.hpp"

namespace snug::schemes {

struct SnugConfig {
  core::MonitorConfig monitor;
  core::EpochConfig epochs;
  bool flip_enabled = true;  ///< ablation: disable index-bit flipping
};

class SnugScheme final : public PrivateSchemeBase {
 public:
  SnugScheme(const PrivateConfig& cfg, const SnugConfig& snug,
             bus::SnoopBus& bus, dram::DramModel& dram);

  void tick(Cycle now) override { controller_->tick(now); }
  [[nodiscard]] bool has_periodic_work() const noexcept override {
    return true;
  }
  [[nodiscard]] Cycle next_tick_cycle() const noexcept override {
    return controller_->next_boundary();
  }

  [[nodiscard]] const core::GtVector& gt(CoreId c) const;
  [[nodiscard]] const core::CapacityMonitor& monitor(CoreId c) const;
  [[nodiscard]] core::Stage stage() const noexcept {
    return controller_->stage();
  }
  [[nodiscard]] const SnugConfig& snug_config() const noexcept {
    return snug_;
  }

  /// Invariant check used by tests: every cooperative line lives in a
  /// giver-marked set of its host.  Returns the number of violations.
  [[nodiscard]] std::uint64_t cc_lines_in_taker_sets() const;

  /// Base warm state + per-core monitors, G/T vectors and the epoch
  /// controller (stage, boundary, period count — callbacks not fired on
  /// restore).
  void save_warm_state(StateWriter& w) const override;
  void load_warm_state(StateReader& r) override;

 protected:
  void on_local_hit(CoreId c, SetIndex set) override;
  void on_local_miss(CoreId c, SetIndex set, std::uint64_t tag) override;
  void on_local_eviction(CoreId c, SetIndex set,
                         std::uint64_t tag) override;
  RemoteResult probe_peers(CoreId c, Addr addr,
                           Cycle request_done) override;
  void maybe_spill(CoreId c, Addr victim_addr, SetIndex set, Cycle now,
                   int chain_budget) override;

 private:
  void harvest_and_regroup();

  SnugConfig snug_;
  std::vector<std::unique_ptr<core::CapacityMonitor>> monitors_;
  std::vector<core::GtVector> gts_;
  std::unique_ptr<core::SnugController> controller_;
};

}  // namespace snug::schemes
