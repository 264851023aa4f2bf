// OoO-lite core timing model (paper Table 4: 8-wide issue/commit, 128-entry
// RUU, 64-entry LSQ, 3-cycle branch penalty).
//
// The model captures the two mechanisms by which cache behaviour becomes
// IPC:
//   * memory-level parallelism — independent misses overlap while the ROB
//     has space, so latency is partially hidden;
//   * back-pressure — when the oldest instruction is an outstanding miss
//     and the ROB fills, retirement (and therefore dispatch) stalls.
//
// Memory timing is provided by a `Port` (sim::CmpSystem; a test double in
// tests/cpu/core_test.cpp) split into a core-local L1 probe and a
// shared-state miss half:
//   bool  probe_data(core, addr, is_write)   L1D lookup, true on a hit
//   Cycle miss_data(core, addr, is_write, now)  L1D miss: L2/bus/DRAM,
//                                               returns completion > now
//   bool  probe_inst(core, addr)             L1I lookup
//   Cycle miss_inst(core, addr, now)         L1I miss
// Core is a template on the port type, so every simulated load, store
// and ifetch crosses the core/memory boundary as a direct (inlinable)
// call; CTAD picks the port type up from the constructor.
//
// step() returns the next cycle at which the core can make progress, so a
// driver may skip the cycles in between instead of re-entering a no-op
// step() every cycle (sim::CmpSystem::run does).  Per-cycle stepping
// (step(t, t + 1) every cycle, ignoring the return value) remains exactly
// equivalent: a skipped cycle is by construction one in which step()
// would change no state, and the stall-cycle statistics are accounted
// lazily so both calling patterns produce the same counters.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/require.hpp"
#include "common/types.hpp"
#include "trace/instr.hpp"

namespace snug::cpu {

/// The private code region of core `id`: bit 56 tags code, bits 40+ the
/// core — one definition shared by the core model and the benches that
/// mimic its per-block fetch pattern.
[[nodiscard]] constexpr Addr code_base(CoreId id) noexcept {
  return (Addr{1} << 56) | (static_cast<Addr>(id) << 40);
}

struct CoreConfig {
  std::uint32_t issue_width = 8;
  std::uint32_t rob_entries = 128;
  std::uint32_t lsq_entries = 64;
  Cycle branch_penalty = 3;
  std::uint32_t instr_bytes = 4;    ///< for instruction-fetch block gating
  std::uint32_t line_bytes = 64;
  std::uint32_t code_blocks = 256;  ///< benchmark I-footprint (64 B blocks)
};

struct CoreStats {
  std::uint64_t retired = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t branches = 0;
  std::uint64_t mispredicts = 0;
  std::uint64_t ifetch_blocks = 0;
  std::uint64_t rob_full_cycles = 0;
  std::uint64_t lsq_full_cycles = 0;
};

template <typename Port>
class Core {
 public:
  /// Instructions pulled from the stream per InstrStream::fill_batch
  /// call: one virtual dispatch amortised over the batch (and the batch
  /// size of sim::Lookahead's rings).
  static constexpr std::size_t kFetchBatch = 64;

  Core(CoreId id, const CoreConfig& cfg, trace::InstrStream& stream,
       Port& mem)
      : id_(id), cfg_(cfg), stream_(stream), mem_(mem) {
    SNUG_ENSURE(cfg.issue_width >= 1);
    SNUG_ENSURE(cfg.rob_entries >= cfg.issue_width);
    SNUG_ENSURE(cfg.lsq_entries >= 1);
    SNUG_ENSURE(cfg.code_blocks >= 1);
    SNUG_ENSURE(cfg.line_bytes >= cfg.instr_bytes && cfg.instr_bytes >= 1);
    rob_.resize(cfg.rob_entries);
    code_base_ = code_base(id);
  }

  /// Simulates this core from global cycle `now` and returns the
  /// earliest cycle at which it can next change state — the caller
  /// wakes it there instead of stepping every cycle.
  ///
  /// Everything a core does between its own L1 *misses* is core-local:
  /// plain instructions, correctly predicted branches, L1-hit loads and
  /// stores, retirement, mispredict redirects, batch refills from the
  /// (private) stream.  step() therefore free-runs: it simulates cycle
  /// after cycle (retire, then fetch/dispatch, then next-event) WITHOUT
  /// returning to the caller, until it either
  ///   * reaches a shared-state event (an L1D or L1I miss, which books
  ///     bus/DRAM tenures and mutates the L2 scheme): if the event falls
  ///     at a cycle t beyond `now`, the core *parks* — records the
  ///     half-dispatched instruction and returns t.  The caller resumes
  ///     it via its normal wake machinery at exactly (cycle t, this
  ///     core's sweep slot), so every shared-state access happens in
  ///     the same global (cycle, core-index) order as per-cycle
  ///     stepping — the property all bus/DRAM/scheme bit-identity rests
  ///     on.  At t == now (the core's own sweep slot) misses execute
  ///     synchronously, no park.
  ///   * runs out of window: cycles >= `limit` belong to the caller's
  ///     next call; the core returns its next-event cycle unparked.
  /// `limit = now + 1` simulates exactly one cycle and never parks.
  ///
  /// Epoch ticks and WBB drains stay on the driver's timeline; they
  /// commute with the free-run because it touches no shared state.  A
  /// parked core must be resumed at the returned cycle before anything
  /// else observes the shared state at that cycle (CmpSystem::run
  /// guarantees parks never outlive a run window).
  Cycle step(Cycle now, Cycle limit) {
    // Hoisted configuration: the miss calls below reach the memory
    // system, which the optimiser cannot see through, so member loads
    // inside the loops would otherwise repeat after every instruction.
    const std::uint32_t issue_width = cfg_.issue_width;
    const std::uint32_t rob_entries = cfg_.rob_entries;
    const std::uint32_t lsq_entries = cfg_.lsq_entries;
    RobEntry* const rob = rob_.data();

    Cycle t = now;
    std::uint32_t dispatched = 0;
    bool observed_block = false;
    bool mid_cycle = false;

    if (pending_ != Pending::kNone) {
      // Parked: t == the shared event's cycle and this is our sweep
      // slot, so the miss executes now, synchronously.  Cycle t's
      // retire phase ran before the park; finish its dispatch phase.
      dispatched = pending_dispatched_;
      observed_block = pending_observed_block_;
      mid_cycle = true;
      if (pending_ == Pending::kData) {
        const Cycle completion =
            mem_.miss_data(id_, pending_addr_, pending_write_, t);
        SNUG_REQUIRE(completion > t);
        RobEntry entry;
        entry.done_at = pending_write_ ? t + 1 : completion;
        entry.is_mem = true;
        ++ibuf_pos_;
        append_rob(entry, rob, rob_entries);
      } else {  // Pending::kIfetch
        const Cycle completion = mem_.miss_inst(id_, pending_addr_, t);
        const Cycle done = completion > t ? completion : t + 1;
        if (done > t + 1) fetch_stall_until_ = done;
        // The instruction the fetch belonged to still dispatches at t;
        // a data miss inside it is synchronous.
        const bool parked = dispatch_decode(t, t, rob, rob_entries);
        SNUG_ENSURE(!parked);
      }
      pending_ = Pending::kNone;
      ++dispatched;
    }

    for (;;) {
      if (!mid_cycle) {
        settle_stall(t);
        std::uint32_t retired_now = 0;
        while (retired_now < issue_width && rob_size_ != 0 &&
               rob[rob_head_].done_at <= t) {
          lsq_used_ -= rob[rob_head_].is_mem;
          if (++rob_head_ == rob_entries) rob_head_ = 0;
          --rob_size_;
          ++retired_now;
        }
        stats_.retired += retired_now;
        dispatched = 0;
        observed_block = false;
      }
      mid_cycle = false;

      if (t >= fetch_stall_until_) {
        while (dispatched < issue_width) {
          if (rob_size_ >= rob_entries || lsq_used_ >= lsq_entries) {
            observed_block = true;
            break;
          }
          if (dispatch_one(t, now, rob, rob_entries)) {
            pending_dispatched_ = dispatched;
            pending_observed_block_ = observed_block;
            return t;
          }
          ++dispatched;
          if (t < fetch_stall_until_) break;  // redirect / I-miss
        }
      }

      // Next-event computation and pending-stall bookkeeping.  A stall
      // span [from, retire_at) is recorded as *pending*: exactly the
      // cycles per-cycle stepping would charge one by one (dispatch is
      // attempted from fetch_stall_until_ on; cycle t counts only if
      // this cycle's attempt reached the full check; the blockage
      // cannot clear before the ROB head retires).  settle_stall()
      // folds it in as simulated time reaches it, so the counters
      // never cover cycles a run window did not execute.
      const bool rob_full = rob_size_ >= rob_entries;
      const bool lsq_full = lsq_used_ >= lsq_entries;
      const Cycle dispatch_at = (rob_full || lsq_full)
                                    ? kNever
                                    : std::max(fetch_stall_until_, t + 1);
      Cycle next;
      if (rob_size_ == 0) {
        stall_from_ = stall_until_ = 0;
        next = dispatch_at;
      } else {
        const Cycle retire_at = std::max(rob[rob_head_].done_at, t + 1);
        if (rob_full || lsq_full) {
          stall_from_ = std::max(fetch_stall_until_,
                                 observed_block ? t : t + 1);
          stall_until_ = retire_at;
          stall_is_rob_ = rob_full;
        } else {
          stall_from_ = stall_until_ = 0;
        }
        next = std::min(dispatch_at, retire_at);
      }
      if (next >= limit) return next;
      t = next;
    }
  }

  /// Folds the pending stall span into rob_full/lsq_full counters up to
  /// (excluding) `now`.  step() settles on entry; a driver that ends a
  /// run window at cycle `end` calls settle_stall(end) so stall cycles
  /// inside the window are charged even when the core slept through its
  /// tail (sim::CmpSystem::run does).
  void settle_stall(Cycle now) noexcept {
    if (stall_until_ > stall_from_) {
      const Cycle upto = std::min(now, stall_until_);
      if (upto > stall_from_) {
        (stall_is_rob_ ? stats_.rob_full_cycles
                       : stats_.lsq_full_cycles) += upto - stall_from_;
        stall_from_ = upto;
      }
    }
  }

  [[nodiscard]] const CoreStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint64_t retired() const noexcept {
    return stats_.retired;
  }
  [[nodiscard]] CoreId id() const noexcept { return id_; }

  /// IPC over a window of `cycles` (uses retired instructions since the
  /// last reset_stats()).
  [[nodiscard]] double ipc(Cycle cycles) const noexcept {
    if (cycles == 0) return 0.0;
    return static_cast<double>(stats_.retired) /
           static_cast<double>(cycles);
  }

  /// Clears counters; `now` marks where the new measurement window
  /// starts.  The pre-reset part of an in-flight stall span is settled
  /// into the discarded window and the remainder stays pending for the
  /// new one, so windowed stall statistics match what per-cycle
  /// accounting records.  Pass the boundary cycle when windows matter
  /// (sim::CmpSystem::begin_measurement does); the default 0 just
  /// clears counters.
  void reset_stats(Cycle now = 0) noexcept {
    settle_stall(now);
    stats_ = CoreStats{};
  }

 private:
  struct RobEntry {
    Cycle done_at = 0;
    bool is_mem = false;
  };

  static constexpr Cycle kNever = std::numeric_limits<Cycle>::max();

  void append_rob(const RobEntry& entry, RobEntry* rob,
                  std::uint32_t rob_entries) noexcept {
    std::uint32_t tail = rob_head_ + rob_size_;
    if (tail >= rob_entries) tail -= rob_entries;
    rob[tail] = entry;
    ++rob_size_;
  }

  /// Decode + execute of the instruction at ibuf_pos_ at cycle t — the
  /// post-I-fetch tail of dispatch_one.  `global_now` is the caller's
  /// clock: an L1D miss at t > global_now parks the core (returns true)
  /// instead of touching bus/DRAM/L2 ahead of the global event order;
  /// at t == global_now it executes synchronously.
  ///
  /// Branch-light: instruction kinds are uniformly random, so a 4-way
  /// switch on them is a steady stream of branch mispredicts on the
  /// host.  One memory-vs-not test (the only unpredictable branch) plus
  /// flag arithmetic on the SoA batch code covers all four kinds; the
  /// mispredict branch is rare enough to stay a branch.
  bool dispatch_decode(Cycle t, Cycle global_now, RobEntry* rob,
                       std::uint32_t rob_entries) {
    if (ibuf_pos_ == ibuf_len_) {
      ibuf_len_ = static_cast<std::uint32_t>(
          stream_.fill_batch(icode_.data(), iaddr_.data(), kFetchBatch));
      SNUG_ENSURE(ibuf_len_ > 0 && ibuf_len_ <= kFetchBatch);
      ibuf_pos_ = 0;
    }
    const std::uint8_t code = icode_[ibuf_pos_];
    RobEntry entry;
    entry.done_at = t + 1;
    if ((code >> 1) == 1) {  // kLoad or kStore
      const bool is_write = code & 1;
      stats_.loads += !is_write;
      stats_.stores += is_write;
      entry.is_mem = true;
      ++lsq_used_;
      const Addr addr = iaddr_[ibuf_pos_];
      if (!mem_.probe_data(id_, addr, is_write)) {  // L1D miss: shared
        if (t > global_now) {
          pending_ = Pending::kData;
          pending_addr_ = addr;
          pending_write_ = is_write;
          return true;
        }
        const Cycle completion = mem_.miss_data(id_, addr, is_write, t);
        // Port contract (completion > t): a per-instruction hot-path
        // precondition — checked in dev builds, compiled out in the
        // measurement configurations (common/require.hpp).
        SNUG_REQUIRE(completion > t);
        // Stores update cache state and consume bandwidth but commit
        // without waiting for the line (store-buffer semantics); loads
        // occupy their ROB entry until the data arrives.
        if (!is_write) entry.done_at = completion;
      }
      // L1D hit: completion is t + 1 — entry.done_at is already right.
    } else {
      stats_.branches += (code & 7) == 1;
      if (code & trace::kInstrMispredictBit) {
        ++stats_.mispredicts;
        fetch_stall_until_ = t + cfg_.branch_penalty;
      }
    }
    ++ibuf_pos_;
    append_rob(entry, rob, rob_entries);
    return false;
  }

  /// Per-block instruction fetch (one L1I access per fetched line), then
  /// dispatch_decode.  L1I and L1D misses beyond the caller's clock park
  /// the core (see step).  Returns true when parked.
  bool dispatch_one(Cycle t, Cycle global_now, RobEntry* rob,
                           std::uint32_t rob_entries) {
    if (--ifetch_countdown_ == 0) {
      ifetch_countdown_ = cfg_.line_bytes / cfg_.instr_bytes;
      const Addr ifetch_addr =
          code_base_ + code_block_cursor_ * cfg_.line_bytes;
      if (++code_block_cursor_ == cfg_.code_blocks) {
        code_block_cursor_ = 0;  // cyclic I-footprint, division-free
      }
      ++stats_.ifetch_blocks;
      if (!mem_.probe_inst(id_, ifetch_addr)) {  // L1I miss: shared
        if (t > global_now) {
          pending_ = Pending::kIfetch;
          pending_addr_ = ifetch_addr;
          return true;
        }
        const Cycle completion = mem_.miss_inst(id_, ifetch_addr, t);
        const Cycle done = completion > t ? completion : t + 1;
        if (done > t + 1) fetch_stall_until_ = done;  // I-miss stall
      }
      // L1I hit: done == t + 1, no fetch stall.
    }
    return dispatch_decode(t, global_now, rob, rob_entries);
  }

  CoreId id_;
  CoreConfig cfg_;
  trace::InstrStream& stream_;
  Port& mem_;

  // Fixed-capacity ring buffer ROB: head_ is the oldest entry, entries
  // wrap modulo cfg_.rob_entries.  Replaces std::deque, whose per-push
  // bookkeeping and segmented storage sat on the dispatch fast path.
  std::vector<RobEntry> rob_;
  std::uint32_t rob_head_ = 0;
  std::uint32_t rob_size_ = 0;

  std::uint32_t lsq_used_ = 0;
  Cycle fetch_stall_until_ = 0;
  std::uint32_t ifetch_countdown_ = 1;  // instrs until the next block fetch
  Addr code_base_;
  std::uint64_t code_block_cursor_ = 0;

  // SoA instruction batch from the stream (see trace::encode_instr): one
  // hot code byte per instruction, addresses only read for loads/stores.
  std::array<std::uint8_t, kFetchBatch> icode_;
  std::array<Addr, kFetchBatch> iaddr_;
  std::uint32_t ibuf_pos_ = 0;
  std::uint32_t ibuf_len_ = 0;

  // Parked shared-state event (see step): the half-dispatched
  // instruction waiting for its (cycle, core) sweep slot.
  enum class Pending : std::uint8_t { kNone, kData, kIfetch };
  Pending pending_ = Pending::kNone;
  Addr pending_addr_ = 0;
  bool pending_write_ = false;
  std::uint32_t pending_dispatched_ = 0;
  bool pending_observed_block_ = false;

  // Pending stall span [stall_from_, stall_until_) not yet folded into
  // rob_full/lsq_full — settled as simulated time reaches it (see
  // settle_stall), so counters never cover cycles outside a run window.
  Cycle stall_from_ = 0;
  Cycle stall_until_ = 0;
  bool stall_is_rob_ = true;

  CoreStats stats_;
};

}  // namespace snug::cpu
