#include "schemes/snug_scheme.hpp"

#include "common/require.hpp"

namespace snug::schemes {

SnugScheme::SnugScheme(const PrivateConfig& cfg, const SnugConfig& snug,
                       bus::SnoopBus& bus, dram::DramModel& dram)
    : PrivateSchemeBase("SNUG", cfg, bus, dram), snug_(snug) {
  SNUG_ENSURE(snug.monitor.num_sets == cfg.l2.num_sets());
  SNUG_ENSURE(snug.monitor.assoc == cfg.l2.associativity());
  for (CoreId c = 0; c < cfg.num_cores; ++c) {
    monitors_.push_back(
        std::make_unique<core::CapacityMonitor>(snug.monitor));
    gts_.emplace_back(snug.monitor.num_sets);
  }
  controller_ = std::make_unique<core::SnugController>(snug.epochs);
  controller_->on_identify_end = [this] { harvest_and_regroup(); };
  controller_->on_group_end = [this] {
    // A new sampling period begins: counters start counting again.
    for (auto& m : monitors_) m->set_counting(true);
  };
}

const core::GtVector& SnugScheme::gt(CoreId c) const {
  SNUG_REQUIRE(c < gts_.size());
  return gts_[c];
}

const core::CapacityMonitor& SnugScheme::monitor(CoreId c) const {
  SNUG_REQUIRE(c < monitors_.size());
  return *monitors_[c];
}

void SnugScheme::on_local_hit(CoreId c, SetIndex set) {
  monitors_[c]->on_local_hit(set);
}

void SnugScheme::on_local_miss(CoreId c, SetIndex set, std::uint64_t tag) {
  monitors_[c]->on_local_miss(set, tag);
}

void SnugScheme::on_local_eviction(CoreId c, SetIndex set,
                                   std::uint64_t tag) {
  monitors_[c]->on_local_eviction(set, tag);
}

void SnugScheme::harvest_and_regroup() {
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    monitors_[c]->harvest(gts_[c]);
    monitors_[c]->set_counting(false);
    // Flush cooperative lines that regrouping made unreachable: retrieval
    // only searches giver sets, so guests in now-taker sets must go.
    cache::SetAssocCache& l2 = slice(c);
    for (SetIndex s = 0; s < gts_[c].num_sets(); ++s) {
      if (gts_[c].giver(s)) continue;
      const cache::CacheSet set = l2.set(s);
      for (WayIndex w = 0; w < set.assoc(); ++w) {
        if (set.valid_cc(w)) {
          l2.invalidate(s, w);
          ++stats_.cc_flushed();
        }
      }
    }
  }
}

RemoteResult SnugScheme::probe_peers(CoreId c, Addr addr,
                                     Cycle request_done) {
  const auto& geo = slice(c).geometry();
  const SetIndex home = geo.set_of(addr);
  const std::uint64_t tag = geo.tag_of(addr);
  for (std::uint32_t i = 1; i < cfg_.num_cores; ++i) {
    const CoreId peer = (c + i) % cfg_.num_cores;
    const core::RetrieveSearch search =
        core::retrieve_search(gts_[peer], home);
    cache::CcLocation loc;
    if (search.same) {
      const WayIndex w = slice(peer).set(home).find_cc(tag, false);
      if (w != kInvalidWay) loc = {true, home, w, false};
    }
    if (!loc.found && search.flipped && snug_.flip_enabled) {
      const SetIndex buddy = geo.buddy_set(home);
      const WayIndex w = slice(peer).set(buddy).find_cc(tag, true);
      if (w != kInvalidWay) loc = {true, buddy, w, true};
    }
    if (!loc.found) continue;
    slice(peer).forward_and_invalidate(loc);
    const Cycle lookup_done =
        request_done + cfg_.lat.remote_lookup_snug;
    const bus::BusGrant data =
        abus().transact(lookup_done, bus::BusOp::kDataBlock);
    return {true, data.finished};
  }
  return {};
}

void SnugScheme::maybe_spill(CoreId c, Addr victim_addr, SetIndex set,
                             Cycle now, int chain_budget) {
  if (!controller_->spilling_allowed()) {
    ++stats_.spill_blocked_stage();
    return;
  }
  // Only taker sets are entitled to spill (Section 3.1.3).
  if (!gts_[c].taker(set)) {
    ++stats_.spill_blocked_giver();
    return;
  }
  const SetIndex home = slice(c).geometry().set_of(victim_addr);
  const std::uint32_t start =
      static_cast<std::uint32_t>(rng_.below(cfg_.num_cores));
  for (std::uint32_t i = 0; i < cfg_.num_cores; ++i) {
    const CoreId peer = (start + i) % cfg_.num_cores;
    if (peer == c) continue;
    core::SpillPlacement placement =
        core::choose_spill_placement(gts_[peer], home);
    if (placement == core::SpillPlacement::kFlipped && !snug_.flip_enabled) {
      placement = core::SpillPlacement::kNone;
    }
    if (placement == core::SpillPlacement::kNone) continue;
    place_spill(c, peer, victim_addr,
                placement == core::SpillPlacement::kFlipped, now,
                chain_budget);
    return;
  }
  ++stats_.spill_no_target();
}

void SnugScheme::save_warm_state(StateWriter& w) const {
  PrivateSchemeBase::save_warm_state(w);
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    monitors_[c]->save_state(w);
    std::vector<std::uint8_t> bits(gts_[c].num_sets());
    for (SetIndex s = 0; s < gts_[c].num_sets(); ++s) {
      bits[s] = gts_[c].taker(s) ? 1 : 0;
    }
    w.vec(bits);
  }
  w.pod(static_cast<std::uint8_t>(controller_->stage()));
  w.pod(controller_->next_boundary());
  w.pod(controller_->periods_completed());
}

void SnugScheme::load_warm_state(StateReader& r) {
  PrivateSchemeBase::load_warm_state(r);
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    monitors_[c]->load_state(r);
    const auto bits = r.vec<std::uint8_t>();
    SNUG_ENSURE(bits.size() == gts_[c].num_sets());
    for (SetIndex s = 0; s < gts_[c].num_sets(); ++s) {
      gts_[c].set_taker(s, bits[s] != 0);
    }
  }
  const auto stage = static_cast<core::Stage>(r.pod<std::uint8_t>());
  const auto boundary = r.pod<Cycle>();
  const auto periods = r.pod<std::uint64_t>();
  controller_->restore(stage, boundary, periods);
}

std::uint64_t SnugScheme::cc_lines_in_taker_sets() const {
  std::uint64_t violations = 0;
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    const cache::SetAssocCache& l2 = slice(c);
    for (SetIndex s = 0; s < gts_[c].num_sets(); ++s) {
      if (gts_[c].giver(s)) continue;
      const cache::CacheSet set = l2.set(s);
      for (WayIndex w = 0; w < set.assoc(); ++w) {
        if (set.valid_cc(w)) ++violations;
      }
    }
  }
  return violations;
}

}  // namespace snug::schemes
