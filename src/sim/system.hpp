// CmpSystem — the assembled N-core machine: cores, private L1I/L1D, an
// L2 organisation (scheme), the snoop bus and DRAM, driven by synthetic
// instruction streams.  It is the cores' memory port: every L1 miss is
// routed through the scheme, which updates all state synchronously and
// returns the completion cycle.
#pragma once

#include <memory>
#include <vector>

#include "cpu/core.hpp"
#include "schemes/factory.hpp"
#include "sim/config.hpp"
#include "sim/front_end.hpp"
#include "sim/scenario.hpp"
#include "trace/synth_stream.hpp"
#include "trace/workloads.hpp"

namespace snug::sim {

class CmpSystem final {
 public:
  CmpSystem(const SystemConfig& cfg, const schemes::SchemeSpec& spec,
            const trace::WorkloadCombo& combo, const RunScale& scale);

  /// The machine a scenario describes, running `combo` under `spec`.
  CmpSystem(const ScenarioSpec& scenario, const schemes::SchemeSpec& spec,
            const trace::WorkloadCombo& combo);

  /// Advances the machine by `cycles` core cycles.  Cores free-run
  /// (cpu::Core::step): each simulates ahead through its core-local work
  /// — plain instructions, L1 hits, retirement — in one call, parking at
  /// shared-state events (L1 misses) so those still execute in exact
  /// global (cycle, core) order.  Resumable: no park survives a window,
  /// so run(a) + run(b) is bit-identical to run(a + b).  For its span
  /// the cores' lookahead rings are attached to the process-wide
  /// front-end helper (sim/front_end.hpp), which synthesises their
  /// instruction batches ahead of them; what it made and run() did not
  /// consume waits in the rings for the next run().
  void run(Cycle cycles);

  /// Functional fast-forward warm-up (warmup-mode=functional): drives
  /// the same instruction streams through the same L1/L2/scheme *state*
  /// machinery as run() — fills, spills, retrieves, monitor and shadow
  /// events, epoch ticks at their exact boundaries — but skips the
  /// timing machinery wholesale (no bus/DRAM booking, no write-back
  /// buffering, no ROB/LSQ occupancy; see L2Scheme::set_functional_
  /// warmup).  A lightweight per-core cursor replays the core's fetch/
  /// dispatch cadence against an estimated clock so reference density
  /// per epoch stays realistic; the cores themselves are never stepped
  /// and remain in their just-built state.  Must be called on a freshly
  /// built machine, before any run(); afterwards the machine state is
  /// the closed set save_warm_state() serializes, and run() continues
  /// in full timing from `now()`.  Synchronous: it consumes the streams
  /// on the calling thread, so each stream's cursor stands exactly where
  /// its consumer does.
  void warm_functional(Cycle cycles);

  /// Serializes the post-functional-warm-up machine (now_, L1 arenas,
  /// stream cursors, scheme warm state) into a self-contained blob.
  /// load_warm_state on a freshly built same-config machine restores it
  /// bit-exactly: restore + run() is identical to warm_functional +
  /// run() in-process (pinned by tests/sim/warm_state_test.cpp).  Both
  /// die on a machine that has run(): the blob holds neither the cores'
  /// pipelines nor the lookahead the front end made beyond the stream
  /// cursors it records.
  [[nodiscard]] std::vector<std::byte> save_warm_state() const;
  void load_warm_state(const std::vector<std::byte>& blob);

  /// Clears all statistics (contents survive) and marks the start of a
  /// measurement window.
  void begin_measurement();

  /// Per-core IPC over the current measurement window.
  [[nodiscard]] std::vector<double> measured_ipc() const;

  /// Name-based snapshot of every component's counters (bus, DRAM, L1s,
  /// scheme + slices) — the once-per-report path of the SoA stats
  /// pipeline (stats/counters.hpp).
  [[nodiscard]] stats::CounterReport counter_report() const;

  // The cores' memory port, split into a core-local probe and a
  // shared-state miss half.  The split serves the free-running core
  // step (cpu::Core::step): the probe touches only the calling core's
  // L1 — rank updates, dirty marks, hit/miss counters — so a core may
  // issue it while running ahead of the global clock, and park before
  // the miss half, which reaches the scheme/bus/DRAM and must happen in
  // global (cycle, core) order.  data_access/inst_fetch compose the two
  // halves for callers outside the core model (functional warm-up,
  // hot-path bench).  All defined inline: these calls are the boundary
  // between the core model and the memory hierarchy — every simulated
  // load, store and ifetch crosses it, and the L1-hit fast path below
  // must fold into the caller rather than pay a cross-TU call.
  bool probe_data(CoreId core, Addr addr, bool is_write) {
    return l1d_[core].access_local(addr, is_write).hit;
  }

  /// The L1D-miss half: `probe_data` already ran and missed.
  Cycle miss_data(CoreId core, Addr addr, bool is_write, Cycle now) {
    cache::SetAssocCache& l1 = l1d_[core];
    const Cycle completion = scheme_->access(core, addr, is_write, now);
    const Addr block = l1.geometry().block_of(addr);
    const cache::Eviction ev = l1.fill_local(block, is_write, core);
    if (ev.happened() && ev.line.dirty) {
      const Addr victim = l1.geometry().addr_of(ev.line.tag, ev.set);
      scheme_->l1_writeback(core, victim, now);
    }
    return completion > now ? completion : now + 1;
  }

  bool probe_inst(CoreId core, Addr addr) {
    return l1i_[core].access_local(addr, false).hit;
  }

  /// The L1I-miss half: `probe_inst` already ran and missed.
  Cycle miss_inst(CoreId core, Addr addr, Cycle now) {
    cache::SetAssocCache& l1 = l1i_[core];
    const Cycle completion = scheme_->access(core, addr, false, now);
    const Addr block = l1.geometry().block_of(addr);
    l1.fill_local(block, false, core);  // I-lines are never dirty
    return completion > now ? completion : now + 1;
  }

  Cycle data_access(CoreId core, Addr addr, bool is_write, Cycle now) {
    if (probe_data(core, addr, is_write)) return now + 1;
    return miss_data(core, addr, is_write, now);
  }

  Cycle inst_fetch(CoreId core, Addr addr, Cycle now) {
    if (probe_inst(core, addr)) return now + 1;
    return miss_inst(core, addr, now);
  }

  // Introspection for tests and benches.
  [[nodiscard]] schemes::L2Scheme& scheme() { return *scheme_; }
  [[nodiscard]] const schemes::L2Scheme& scheme() const { return *scheme_; }
  [[nodiscard]] bus::SnoopBus& snoop_bus() { return *bus_; }
  [[nodiscard]] dram::DramModel& dram() { return *dram_; }
  [[nodiscard]] cpu::Core<CmpSystem>& core(CoreId c);
  [[nodiscard]] cache::SetAssocCache& l1d(CoreId c);
  /// The core's stream itself, behind its lookahead ring: draw from it
  /// only on a machine that has not run.
  [[nodiscard]] trace::SyntheticStream& stream(CoreId c);
  [[nodiscard]] FrontEnd& front_end() { return *front_end_; }
  [[nodiscard]] Cycle now() const noexcept { return now_; }

 private:
  void build(const schemes::SchemeSpec& spec,
             const trace::WorkloadCombo& combo, const RunScale& scale);

  SystemConfig cfg_;
  std::unique_ptr<bus::SnoopBus> bus_;
  std::unique_ptr<dram::DramModel> dram_;
  std::unique_ptr<schemes::L2Scheme> scheme_;
  // Value storage: the L1 probe is the innermost loop of the whole
  // simulator, and one pointer chase per access is measurable there.
  std::vector<cache::SetAssocCache> l1i_;
  std::vector<cache::SetAssocCache> l1d_;
  std::vector<std::unique_ptr<trace::SyntheticStream>> streams_;
  // The cores consume their streams through these lookahead rings.
  std::unique_ptr<FrontEnd> front_end_;
  // Cores are templated on this system: the per-instruction probe/miss
  // calls are direct and inline.
  std::vector<std::unique_ptr<cpu::Core<CmpSystem>>> cores_;
  // Per-core next-event cycle: run() skips a core while now_ is below its
  // wake cycle instead of re-entering a no-op step() every cycle.
  std::vector<Cycle> core_wake_;
  Cycle now_ = 0;
  Cycle window_start_ = 0;
  bool ran_ = false;  ///< run() was called (see save_warm_state)
};

}  // namespace snug::sim
