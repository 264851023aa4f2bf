// Shared machinery for the private-L2 organisations (L2P, CC, DSR, SNUG):
// one L2 slice + write-back buffer per core, the common access flow
// (local lookup -> WBB direct read -> remote retrieve -> DRAM -> fill),
// eviction routing, spill placement and the one retrieve: every
// cooperative scheme's miss snoops the peers, forwards and invalidates
// the guest copy it finds and books its data tenure in probe_peers.
// Scheme-specific behaviour enters through hooks: the monitor events
// (on_local_hit / on_local_miss / on_local_eviction), the per-peer guest
// search and its lookup latency (find_guest / peer_lookup_cycles), and
// the spill decision (maybe_spill).  SNUG and DSR share one
// implementation of the monitor events and the spill decision in
// schemes/classifying_base.hpp; L2P never retrieves.
#pragma once

#include <optional>
#include <vector>

#include "cache/wbb.hpp"
#include "common/rng.hpp"
#include "schemes/scheme.hpp"

namespace snug::schemes {

struct PrivateConfig {
  std::uint32_t num_cores = 4;
  cache::CacheGeometry l2{1 << 20, 16, 64};  ///< per-slice (Table 4)
  cache::WbbConfig wbb;
  LatencyConfig lat;
};

class PrivateSchemeBase : public L2Scheme {
 public:
  PrivateSchemeBase(std::string scheme_name, const PrivateConfig& cfg,
                    bus::SnoopBus& bus, dram::DramModel& dram);

  Cycle access(CoreId c, Addr addr, bool is_write, Cycle now) final;
  void l1_writeback(CoreId c, Addr addr, Cycle now) final;

  /// Syncs every slice's write-back buffer to `now` and recomputes the
  /// drain deadline (L2Scheme event-horizon contract).
  void drain(Cycle now) final;

  [[nodiscard]] const char* name() const override {
    return name_.c_str();
  }
  [[nodiscard]] cache::SetAssocCache& slice(CoreId c) override;
  [[nodiscard]] const cache::SetAssocCache& slice(CoreId c) const override;
  [[nodiscard]] std::uint32_t num_slices() const override {
    return cfg_.num_cores;
  }
  [[nodiscard]] cache::WriteBackBuffer& wbb(CoreId c);

  /// Total cooperative copies of `addr` across all slices (invariant: <= 1).
  [[nodiscard]] std::uint32_t cc_copies_of(Addr addr) const;

  /// Base warm state: spill RNG + every slice's arena.  Requires (and
  /// asserts) empty write-back buffers — guaranteed after a functional
  /// warm-up, which never inserts into them.  Derived schemes call the
  /// base then append their epoch state.
  void save_warm_state(StateWriter& w) const override;
  void load_warm_state(StateReader& r) override;

 protected:
  /// Longest eviction-driven spill chain one fill can trigger.  A spill
  /// displacing a peer's *local* victim makes that victim eligible for
  /// spilling in turn (it is an ordinary eviction); chains terminate
  /// naturally when a displaced line is a guest (one-chance forwarding
  /// drops it) or dirty, and this budget bounds the pathological case.
  static constexpr int kMaxSpillChain = 4;

  // ------------------------------------------------------------- hooks
  /// A local hit occurred in slice c (SNUG/DSR: feed the monitor).
  virtual void on_local_hit(CoreId /*c*/, SetIndex /*set*/) {}
  /// A local miss occurred (SNUG/DSR: probe the shadow set).
  virtual void on_local_miss(CoreId /*c*/, SetIndex /*set*/,
                             std::uint64_t /*tag*/) {}
  /// Whether a miss searches the peers at all (L2P: nothing ever spills
  /// into a slice, so its misses go straight to memory).
  [[nodiscard]] virtual bool retrieves() const noexcept { return true; }
  /// Where, if anywhere, `peer`'s slice holds a guest copy of `addr`
  /// that a retrieve may take.  Default: either placement (home set with
  /// f = 0, buddy set with f = 1).
  [[nodiscard]] virtual cache::CcLocation find_guest(CoreId peer,
                                                     Addr addr) const;
  /// Peer-side search time between the retrieve request and the data
  /// tenure (Table 4: 2 cycles for a plain snoop).
  [[nodiscard]] virtual Cycle peer_lookup_cycles() const noexcept {
    return cfg_.lat.remote_lookup_cc;
  }
  /// A clean local victim left slice c; the scheme may spill it.
  /// `chain_budget` is decremented across cascade hops.
  virtual void maybe_spill(CoreId /*c*/, Addr /*victim_addr*/,
                           SetIndex /*set*/, Cycle /*now*/,
                           int /*chain_budget*/) {}
  /// A local line (clean or dirty) was displaced from slice c's set
  /// (SNUG/DSR: insert its tag into the shadow set).
  virtual void on_local_eviction(CoreId /*c*/, SetIndex /*set*/,
                                 std::uint64_t /*tag*/) {}

  // -------------------------------------------------------- shared flow
  /// The retrieve: serves core c's miss from a peer L2 if one holds a
  /// guest copy.  The request has already been broadcast (it finished at
  /// `request_done`); all peers snoop it in parallel and at most one
  /// holds the copy, which it forwards and invalidates.  Returns the
  /// data tenure's completion, or nothing when no peer responds.
  std::optional<Cycle> probe_peers(CoreId c, Addr addr, Cycle request_done);

  /// Installs a fill into slice c and routes the displaced line.
  /// Returns the WBB stall (0 normally).
  Cycle install_fill(CoreId c, Addr addr, bool dirty, Cycle now);

  /// Routes a displaced line out of `cache`: guests are dropped
  /// (one-chance), dirty locals go to the WBB, clean locals may spill
  /// onward while `chain_budget` lasts.
  void route_eviction(CoreId cache, const cache::Eviction& ev, Cycle now,
                      int chain_budget);

  /// Places a spill into `target`'s slice and routes its displaced line.
  void place_spill(CoreId owner, CoreId target, Addr addr, bool flipped,
                   Cycle now, int chain_budget);

  /// Bus/DRAM in effect for the current mode: the real models, or the
  /// shadow pair during a functional warm-up (see L2Scheme).
  [[nodiscard]] bus::SnoopBus& abus() noexcept {
    return functional_warmup() ? shadow_bus() : bus_;
  }
  [[nodiscard]] dram::DramModel& adram() noexcept {
    return functional_warmup() ? shadow_dram() : dram_;
  }

  PrivateConfig cfg_;
  bus::SnoopBus& bus_;
  dram::DramModel& dram_;
  Rng rng_;  ///< spill coin flips / tie-breaks

 private:
  /// Lowers the cached drain deadline after an insert into `wbb` — the
  /// only operation that can move a buffer's deadline earlier.  Syncs
  /// (read_hit / drains) only push deadlines later, so the cached value
  /// stays a valid lower bound in between (see L2Scheme).
  void note_wbb_insert(const cache::WriteBackBuffer& wbb) noexcept {
    const Cycle d = wbb.next_drain_cycle();
    if (d < drain_deadline_) drain_deadline_ = d;
  }

  std::string name_;
  // Value storage: one pointer chase fewer on every access, and the
  // slices' flat arrays sit in one allocation run per slice.
  std::vector<cache::SetAssocCache> slices_;
  std::vector<cache::WriteBackBuffer> wbbs_;
};

}  // namespace snug::schemes
