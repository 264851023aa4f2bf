// SNUG — the paper's contribution (Section 3).
//
// Per slice: a CapacityMonitor with one saturating counter per set and a
// G/T vector; a global two-stage controller alternates identification
// (counters learn, no spilling) and grouping (spill/receive per the G/T
// vectors using index-bit flipping).  All of that is the classifying
// layer (classifying_base.hpp); SNUG adds its retrieve search.
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

#include "schemes/classifying_base.hpp"

namespace snug::schemes {

struct SnugConfig {
  core::MonitorConfig monitor;
  core::EpochConfig epochs;
  bool flip_enabled = true;  ///< ablation: disable index-bit flipping
};

class SnugScheme final : public ClassifyingSchemeBase {
 public:
  SnugScheme(const PrivateConfig& cfg, const SnugConfig& snug,
             bus::SnoopBus& bus, dram::DramModel& dram);

  [[nodiscard]] const SnugConfig& snug_config() const noexcept {
    return snug_;
  }

  /// Invariant check used by tests: every cooperative line lives in a
  /// giver-marked set of its host.  Returns the number of violations.
  [[nodiscard]] std::uint64_t cc_lines_in_taker_sets() const;

 protected:
  [[nodiscard]] cache::CcLocation find_guest(CoreId peer,
                                             Addr addr) const override;
  [[nodiscard]] Cycle peer_lookup_cycles() const noexcept override {
    return cfg_.lat.remote_lookup_snug;
  }
  /// Flushes the guests that regrouping made unreachable: retrieval only
  /// searches giver sets, so guests in now-taker sets must go.
  void regrouped() override;

 private:
  SnugConfig snug_;
};

}  // namespace snug::schemes
