#include "schemes/dsr_scheme.hpp"

#include "common/require.hpp"

namespace snug::schemes {

DsrScheme::DsrScheme(const PrivateConfig& cfg, const DsrConfig& dsr,
                     bus::SnoopBus& bus, dram::DramModel& dram)
    : PrivateSchemeBase("DSR", cfg, bus, dram) {
  const std::uint32_t num_sets = cfg.l2.num_sets();

  shadows_.reserve(cfg.num_cores);
  for (CoreId c = 0; c < cfg.num_cores; ++c) {
    shadows_.emplace_back(num_sets, cfg.l2.associativity());
    // Same taker-biased reset point as the SNUG monitor: an application
    // must show hit evidence before it is volunteered as a receiver.
    app_counter_.emplace_back(dsr.k_bits, /*taker_biased=*/true);
    divider_.emplace_back(dsr.p);
  }
  roles_.assign(cfg.num_cores, Role::kReceiver);  // cold: everyone hosts
  controller_ = std::make_unique<core::SnugController>(dsr.epochs);
  controller_->on_identify_end = [this] { harvest_roles(); };
  controller_->on_group_end = [this] { counting_ = true; };
}

void DsrScheme::harvest_roles() {
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    roles_[c] =
        app_counter_[c].msb() ? Role::kSpiller : Role::kReceiver;
    app_counter_[c].reset();
    divider_[c].reset();
  }
  counting_ = false;  // counters sleep through the grouping stage
}

DsrScheme::Role DsrScheme::role_of(CoreId c) const {
  SNUG_REQUIRE(c < roles_.size());
  return roles_[c];
}

void DsrScheme::on_local_hit(CoreId c, SetIndex /*set*/) {
  if (!counting_) return;
  if (divider_[c].tick()) app_counter_[c].decrement();
}

void DsrScheme::on_local_miss(CoreId c, SetIndex set, std::uint64_t tag) {
  // Shadow upkeep always (exclusivity); counting only during Stage I.
  const bool shadow_hit = shadows_[c].probe_and_remove(set, tag);
  if (counting_ && shadow_hit) {
    app_counter_[c].increment();
    if (divider_[c].tick()) app_counter_[c].decrement();
  }
}

void DsrScheme::on_local_eviction(CoreId c, SetIndex set,
                                  std::uint64_t tag) {
  shadows_[c].insert(set, tag);
}

RemoteResult DsrScheme::probe_peers(CoreId c, Addr addr,
                                    Cycle request_done) {
  for (std::uint32_t i = 1; i < cfg_.num_cores; ++i) {
    const CoreId peer = (c + i) % cfg_.num_cores;
    const cache::CcLocation loc = slice(peer).lookup_cc(addr);
    if (!loc.found) continue;
    slice(peer).forward_and_invalidate(loc);
    const Cycle lookup_done = request_done + cfg_.lat.remote_lookup_cc;
    const bus::BusGrant data =
        abus().transact(lookup_done, bus::BusOp::kDataBlock);
    return {true, data.finished};
  }
  return {};
}

void DsrScheme::save_warm_state(StateWriter& w) const {
  PrivateSchemeBase::save_warm_state(w);
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    std::vector<std::byte> shadow(shadows_[c].state_bytes());
    shadows_[c].export_state(shadow.data());
    w.vec(shadow);
  }
  std::vector<std::uint32_t> values(cfg_.num_cores);
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    values[c] = app_counter_[c].value();
  }
  w.vec(values);
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    values[c] = divider_[c].count();
  }
  w.vec(values);
  std::vector<std::uint8_t> roles(cfg_.num_cores);
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    roles[c] = static_cast<std::uint8_t>(roles_[c]);
  }
  w.vec(roles);
  w.pod(static_cast<std::uint8_t>(counting_));
  w.pod(static_cast<std::uint8_t>(controller_->stage()));
  w.pod(controller_->next_boundary());
  w.pod(controller_->periods_completed());
}

void DsrScheme::load_warm_state(StateReader& r) {
  PrivateSchemeBase::load_warm_state(r);
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    const auto shadow = r.vec<std::byte>();
    SNUG_ENSURE(shadow.size() == shadows_[c].state_bytes());
    shadows_[c].import_state(shadow.data());
  }
  auto values = r.vec<std::uint32_t>();
  SNUG_ENSURE(values.size() == cfg_.num_cores);
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    app_counter_[c].set_value(values[c]);
  }
  values = r.vec<std::uint32_t>();
  SNUG_ENSURE(values.size() == cfg_.num_cores);
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    divider_[c].set_count(values[c]);
  }
  const auto roles = r.vec<std::uint8_t>();
  SNUG_ENSURE(roles.size() == cfg_.num_cores);
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    roles_[c] = static_cast<Role>(roles[c]);
  }
  counting_ = r.pod<std::uint8_t>() != 0;
  const auto stage = static_cast<core::Stage>(r.pod<std::uint8_t>());
  const auto boundary = r.pod<Cycle>();
  const auto periods = r.pod<std::uint64_t>();
  controller_->restore(stage, boundary, periods);
}

void DsrScheme::maybe_spill(CoreId c, Addr victim_addr, SetIndex /*set*/,
                            Cycle now, int chain_budget) {
  if (!controller_->spilling_allowed()) {
    ++stats_.spill_blocked_stage();
    return;
  }
  if (roles_[c] != Role::kSpiller) {
    ++stats_.spill_blocked_role();
    return;
  }
  // Pick a receiver peer for this index, rotating the start position so
  // one receiver does not absorb everything.
  const std::uint32_t start =
      static_cast<std::uint32_t>(rng_.below(cfg_.num_cores));
  for (std::uint32_t i = 0; i < cfg_.num_cores; ++i) {
    const CoreId peer = (start + i) % cfg_.num_cores;
    if (peer == c) continue;
    if (roles_[peer] != Role::kReceiver) continue;
    place_spill(c, peer, victim_addr, /*flipped=*/false, now,
                chain_budget);
    return;
  }
  ++stats_.spill_no_target();
}

}  // namespace snug::schemes
