// The demand-classifying cooperative schemes, SNUG and DSR: one
// implementation of sensing, classification and spill placement.
//
// Per slice: a CapacityMonitor (shadow sets + saturating counters) and a
// G/T vector.  One global two-stage controller alternates identification
// (the monitors count, no spilling) and grouping (spill per the G/T
// vectors harvested at the stage boundary).  The schemes differ only in
// the monitor's granularity and in how a retrieve searches a peer:
//
//  * SNUG keeps one counter per set, flips the last index bit to find a
//    giver buddy, and searches only giver-marked placements;
//  * DSR keeps one counter per cache.  Its G/T vector is uniform, so a
//    buddy set's state equals the home set's, the spill rule below
//    reduces exactly to "a spiller cache spills into a receiver cache's
//    same-index set", and a cache's role is its bit at any set.
//
// A spill starts at a random peer, rotating so no receiver absorbs
// everything, skips the spilling core and takes the first peer whose
// G/T vector offers a placement (grouper.hpp, Figure 8).
#pragma once

#include <vector>

#include "core/controller.hpp"
#include "core/grouper.hpp"
#include "core/monitor.hpp"
#include "schemes/private_base.hpp"

namespace snug::schemes {

class ClassifyingSchemeBase : public PrivateSchemeBase {
 public:
  void tick(Cycle now) final { controller_.tick(now); }
  [[nodiscard]] bool has_periodic_work() const noexcept final {
    return true;
  }
  [[nodiscard]] Cycle next_tick_cycle() const noexcept final {
    return controller_.next_boundary();
  }
  [[nodiscard]] core::Stage stage() const noexcept {
    return controller_.stage();
  }

  [[nodiscard]] const core::GtVector& gt(CoreId c) const;
  /// Monitor stats are cumulative: begin_measurement does not reset them.
  [[nodiscard]] const core::CapacityMonitor& monitor(CoreId c) const;

  /// Base warm state + per-core monitors, G/T vectors and the epoch
  /// controller (stage, boundary, period count — callbacks not fired on
  /// restore).
  void save_warm_state(StateWriter& w) const final;
  void load_warm_state(StateReader& r) final;

 protected:
  /// `flip` enables Case 2 of the grouper (spill into the buddy set).
  ClassifyingSchemeBase(std::string scheme_name, const PrivateConfig& cfg,
                        const core::MonitorConfig& monitor,
                        core::Granularity granularity,
                        const core::EpochConfig& epochs, bool flip,
                        bus::SnoopBus& bus, dram::DramModel& dram);
  ClassifyingSchemeBase(const ClassifyingSchemeBase&) = delete;
  ClassifyingSchemeBase& operator=(const ClassifyingSchemeBase&) = delete;

  void on_local_hit(CoreId c, SetIndex set) final;
  void on_local_miss(CoreId c, SetIndex set, std::uint64_t tag) final;
  void on_local_eviction(CoreId c, SetIndex set, std::uint64_t tag) final;
  void maybe_spill(CoreId c, Addr victim_addr, SetIndex set, Cycle now,
                   int chain_budget) final;

  /// Runs after every harvest, once all G/T vectors hold the new
  /// classification.
  virtual void regrouped() {}

 private:
  void harvest();

  std::vector<core::CapacityMonitor> monitors_;
  std::vector<core::GtVector> gts_;
  core::SnugController controller_;  ///< callbacks capture `this`
  bool flip_;
};

}  // namespace snug::schemes
