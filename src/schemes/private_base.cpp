#include "schemes/private_base.hpp"

#include "common/require.hpp"
#include "common/str.hpp"

namespace snug::schemes {

PrivateSchemeBase::PrivateSchemeBase(std::string scheme_name,
                                     const PrivateConfig& cfg,
                                     bus::SnoopBus& bus,
                                     dram::DramModel& dram)
    : cfg_(cfg),
      bus_(bus),
      dram_(dram),
      rng_(Rng::derive_seed("scheme", Rng::derive_seed(scheme_name))),
      name_(std::move(scheme_name)) {
  SNUG_REQUIRE_MSG(cfg.num_cores >= 2,
                   "%s cooperates across private slices and needs "
                   "num_cores >= 2 (got %u)",
                   name_.c_str(), cfg.num_cores);
  slices_.reserve(cfg.num_cores);
  wbbs_.reserve(cfg.num_cores);
  for (CoreId c = 0; c < cfg.num_cores; ++c) {
    slices_.emplace_back(
        strf("%s.l2[%u]", name_.c_str(), static_cast<unsigned>(c)),
        cfg.l2);
    wbbs_.emplace_back(cfg.wbb);
  }
}

cache::SetAssocCache& PrivateSchemeBase::slice(CoreId c) {
  SNUG_REQUIRE(c < slices_.size());
  return slices_[c];
}

const cache::SetAssocCache& PrivateSchemeBase::slice(CoreId c) const {
  SNUG_REQUIRE(c < slices_.size());
  return slices_[c];
}

cache::WriteBackBuffer& PrivateSchemeBase::wbb(CoreId c) {
  SNUG_REQUIRE(c < wbbs_.size());
  return wbbs_[c];
}

std::uint32_t PrivateSchemeBase::cc_copies_of(Addr addr) const {
  std::uint32_t n = 0;
  for (const auto& s : slices_) n += s.lookup_cc(addr).found ? 1U : 0U;
  return n;
}

void PrivateSchemeBase::drain(Cycle now) {
  Cycle deadline = kNoPeriodicWork;
  for (auto& wbb : wbbs_) {
    wbb.tick(now);
    const Cycle d = wbb.next_drain_cycle();
    if (d < deadline) deadline = d;
  }
  drain_deadline_ = deadline;
}

cache::CcLocation PrivateSchemeBase::find_guest(CoreId peer,
                                              Addr addr) const {
  return slices_[peer].lookup_cc(addr);
}

std::optional<Cycle> PrivateSchemeBase::probe_peers(CoreId c, Addr addr,
                                                    Cycle request_done) {
  for (std::uint32_t i = 1; i < cfg_.num_cores; ++i) {
    const CoreId peer = (c + i) % cfg_.num_cores;
    const cache::CcLocation loc = find_guest(peer, addr);
    if (!loc.found) continue;
    slices_[peer].forward_and_invalidate(loc);
    const Cycle lookup_done = request_done + peer_lookup_cycles();
    return abus().transact(lookup_done, bus::BusOp::kDataBlock).finished;
  }
  return std::nullopt;
}

Cycle PrivateSchemeBase::install_fill(CoreId c, Addr addr, bool dirty,
                                      Cycle now) {
  const cache::Eviction ev = slices_[c].fill_local(addr, dirty, c);
  if (ev.happened() && !ev.line.cc && ev.line.dirty) {
    // Dirty victim: write-back buffer; report the stall to the caller.
    const auto& geo = slices_[c].geometry();
    on_local_eviction(c, ev.set, ev.line.tag);
    ++stats_.evict_dirty_local();
    if (functional_warmup()) {
      // Dropped — the WBB stays empty; a shadow DRAM write stands in
      // for the write-back's bandwidth.
      shadow_dram().write(now);
      return 0;
    }
    const Cycle stall =
        wbbs_[c].insert(geo.addr_of(ev.line.tag, ev.set), now);
    note_wbb_insert(wbbs_[c]);
    stats_.wbb_stall_cycles() += stall;
    return stall;
  }
  route_eviction(c, ev, now, kMaxSpillChain);
  return 0;
}

void PrivateSchemeBase::route_eviction(CoreId cache,
                                       const cache::Eviction& ev, Cycle now,
                                       int chain_budget) {
  if (!ev.happened()) return;
  if (ev.line.cc) {
    ++stats_.evict_guest();  // one-chance forwarding: guests are dropped
    return;
  }
  const auto& geo = slices_[cache].geometry();
  const Addr victim_addr = geo.addr_of(ev.line.tag, ev.set);
  on_local_eviction(cache, ev.set, ev.line.tag);
  if (ev.line.dirty) {
    // Only clean blocks may be cooperatively cached (Section 3.3).
    ++stats_.evict_dirty_local();
    if (functional_warmup()) {
      shadow_dram().write(now);
      return;  // dropped — the WBB stays empty
    }
    const Cycle stall = wbbs_[cache].insert(victim_addr, now);
    note_wbb_insert(wbbs_[cache]);
    stats_.wbb_stall_cycles() += stall;
    return;
  }
  ++stats_.evict_clean_local();
  if (chain_budget > 0) {
    maybe_spill(cache, victim_addr, ev.set, now, chain_budget);
  }
}

void PrivateSchemeBase::place_spill(CoreId owner, CoreId target, Addr addr,
                                    bool flipped, Cycle now,
                                    int chain_budget) {
  SNUG_REQUIRE(owner != target);
  abus().transact(now, bus::BusOp::kSpill);
  const cache::Eviction ev =
      slices_[target].insert_cc(addr, owner, flipped);
  ++stats_.spills();
  // A displaced local victim of the target is an ordinary eviction and
  // may spill onward (this cascade is what lets eviction-driven CC pool
  // same-index sets across slices).
  route_eviction(target, ev, now, chain_budget - 1);
}

Cycle PrivateSchemeBase::access(CoreId c, Addr addr, bool is_write,
                                Cycle now) {
  SNUG_REQUIRE(c < slices_.size());

  cache::SetAssocCache& l2 = slices_[c];
  const cache::AccessResult res = l2.access_local(addr, is_write);
  if (res.hit) {
    ++stats_.l2_hits();
    on_local_hit(c, res.set);
    return now + cfg_.lat.l2_local;
  }
  ++stats_.l2_misses();
  on_local_miss(c, res.set, l2.geometry().tag_of(addr));

  const Addr block = l2.geometry().block_of(addr);

  // Write-back buffer direct read (Table 4: "support direct read") —
  // timing mode only: a functional warm-up keeps the WBBs empty by
  // construction, so there is nothing to read.  read_hit syncs the
  // buffer to `now` itself — no tick on this path.
  if (!functional_warmup() && wbbs_[c].read_hit(block, now)) {
    ++stats_.wbb_direct_reads();
    return now + cfg_.lat.l2_local;
  }

  // One broadcast serves both the peer snoop and the memory request: if
  // no peer responds, the memory controller picks the request up.  In a
  // functional warm-up the tenures book on the shadow bus/DRAM, so the
  // completion carries the same queueing delays the timing machine
  // would compute without touching the real schedules.
  bus::SnoopBus& bus = abus();
  const bus::BusGrant req = bus.transact(now, bus::BusOp::kRequest);
  Cycle completion;
  const std::optional<Cycle> remote =
      retrieves() ? probe_peers(c, addr, req.finished) : std::nullopt;
  if (remote) {
    ++stats_.remote_hits();
    completion = *remote;
  } else {
    const Cycle data_ready = adram().read(req.finished);
    completion = bus.transact(data_ready, bus::BusOp::kDataBlock).finished;
    ++stats_.dram_fills();
  }
  const Cycle stall = install_fill(c, block, is_write, completion);
  return completion + stall;
}

void PrivateSchemeBase::l1_writeback(CoreId c, Addr addr, Cycle now) {
  SNUG_REQUIRE(c < slices_.size());
  cache::SetAssocCache& l2 = slices_[c];
  const cache::AccessResult res = l2.probe_local(addr);
  if (res.hit) {
    l2.mark_dirty(res.set, res.way);
    return;
  }
  // The L2 line was already displaced (non-inclusive hierarchy): buffer the
  // dirty data for memory.
  if (functional_warmup()) {
    // Dropped — the WBB stays empty; a shadow DRAM write stands in.
    shadow_dram().write(now);
    return;
  }
  const Cycle stall = wbbs_[c].insert(l2.geometry().block_of(addr), now);
  note_wbb_insert(wbbs_[c]);
  stats_.wbb_stall_cycles() += stall;
}

void PrivateSchemeBase::save_warm_state(StateWriter& w) const {
  // A functional warm-up never buffers a write-back, so the checkpoint
  // carries no in-flight memory state — enforce that rather than
  // silently serializing a half-timing machine.
  for (const auto& wbb : wbbs_) SNUG_ENSURE(wbb.occupancy() == 0);
  w.pod(rng_.state());
  for (const auto& s : slices_) {
    std::vector<std::byte> arena(s.state_bytes());
    s.export_state(arena.data());
    w.vec(arena);
  }
}

void PrivateSchemeBase::load_warm_state(StateReader& r) {
  for (const auto& wbb : wbbs_) SNUG_ENSURE(wbb.occupancy() == 0);
  rng_.set_state(r.pod<std::array<std::uint64_t, 4>>());
  for (auto& s : slices_) {
    const auto arena = r.vec<std::byte>();
    SNUG_ENSURE(arena.size() == s.state_bytes());
    s.import_state(arena.data());
  }
}

}  // namespace snug::schemes
