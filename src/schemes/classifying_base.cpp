#include "schemes/classifying_base.hpp"

#include "common/require.hpp"

namespace snug::schemes {

ClassifyingSchemeBase::ClassifyingSchemeBase(
    std::string scheme_name, const PrivateConfig& cfg,
    const core::MonitorConfig& monitor, core::Granularity granularity,
    const core::EpochConfig& epochs, bool flip, bus::SnoopBus& bus,
    dram::DramModel& dram)
    : PrivateSchemeBase(std::move(scheme_name), cfg, bus, dram),
      controller_(epochs),
      flip_(flip) {
  SNUG_ENSURE(monitor.num_sets == cfg.l2.num_sets());
  SNUG_ENSURE(monitor.assoc == cfg.l2.associativity());
  monitors_.reserve(cfg.num_cores);
  for (CoreId c = 0; c < cfg.num_cores; ++c) {
    monitors_.emplace_back(monitor, granularity);
    gts_.emplace_back(monitor.num_sets);  // cold: every set gives
  }
  controller_.on_identify_end = [this] { harvest(); };
  controller_.on_group_end = [this] {
    // A new sampling period begins: counters start counting again.
    for (auto& m : monitors_) m.set_counting(true);
  };
}

const core::GtVector& ClassifyingSchemeBase::gt(CoreId c) const {
  SNUG_REQUIRE(c < gts_.size());
  return gts_[c];
}

const core::CapacityMonitor& ClassifyingSchemeBase::monitor(CoreId c) const {
  SNUG_REQUIRE(c < monitors_.size());
  return monitors_[c];
}

void ClassifyingSchemeBase::on_local_hit(CoreId c, SetIndex set) {
  monitors_[c].on_local_hit(set);
}

void ClassifyingSchemeBase::on_local_miss(CoreId c, SetIndex set,
                                          std::uint64_t tag) {
  monitors_[c].on_local_miss(set, tag);
}

void ClassifyingSchemeBase::on_local_eviction(CoreId c, SetIndex set,
                                              std::uint64_t tag) {
  monitors_[c].on_local_eviction(set, tag);
}

void ClassifyingSchemeBase::harvest() {
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    monitors_[c].harvest(gts_[c]);
    monitors_[c].set_counting(false);  // asleep through the group stage
  }
  regrouped();
}

void ClassifyingSchemeBase::maybe_spill(CoreId c, Addr victim_addr,
                                        SetIndex set, Cycle now,
                                        int chain_budget) {
  if (!controller_.spilling_allowed()) {
    ++stats_.spill_blocked_stage();
    return;
  }
  // Only taker sets (SNUG) or spiller caches (DSR) spill (Section 3.1.3).
  if (!gts_[c].taker(set)) {
    if (monitors_[c].granularity() == core::Granularity::kSet) {
      ++stats_.spill_blocked_giver();
    } else {
      ++stats_.spill_blocked_role();
    }
    return;
  }
  const SetIndex home = cfg_.l2.set_of(victim_addr);
  const std::uint32_t start =
      static_cast<std::uint32_t>(rng_.below(cfg_.num_cores));
  for (std::uint32_t i = 0; i < cfg_.num_cores; ++i) {
    const CoreId peer = (start + i) % cfg_.num_cores;
    if (peer == c) continue;
    const core::SpillPlacement placement =
        core::choose_spill_placement(gts_[peer], home);
    if (placement == core::SpillPlacement::kNone) continue;
    if (placement == core::SpillPlacement::kFlipped && !flip_) continue;
    place_spill(c, peer, victim_addr,
                placement == core::SpillPlacement::kFlipped, now,
                chain_budget);
    return;
  }
  ++stats_.spill_no_target();
}

void ClassifyingSchemeBase::save_warm_state(StateWriter& w) const {
  PrivateSchemeBase::save_warm_state(w);
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    monitors_[c].save_state(w);
    std::vector<std::uint8_t> bits(gts_[c].num_sets());
    for (SetIndex s = 0; s < gts_[c].num_sets(); ++s) {
      bits[s] = gts_[c].taker(s) ? 1 : 0;
    }
    w.vec(bits);
  }
  w.pod(static_cast<std::uint8_t>(controller_.stage()));
  w.pod(controller_.next_boundary());
  w.pod(controller_.periods_completed());
}

void ClassifyingSchemeBase::load_warm_state(StateReader& r) {
  PrivateSchemeBase::load_warm_state(r);
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    monitors_[c].load_state(r);
    const auto bits = r.vec<std::uint8_t>();
    SNUG_ENSURE(bits.size() == gts_[c].num_sets());
    for (SetIndex s = 0; s < gts_[c].num_sets(); ++s) {
      gts_[c].set_taker(s, bits[s] != 0);
    }
  }
  const auto stage = static_cast<core::Stage>(r.pod<std::uint8_t>());
  const auto boundary = r.pod<Cycle>();
  const auto periods = r.pod<std::uint64_t>();
  controller_.restore(stage, boundary, periods);
}

}  // namespace snug::schemes
