// Snoop bus model (paper Table 4): 16-byte-wide split-transaction bus
// running at a 4:1 core:bus clock ratio, with 1 bus cycle of arbitration
// per transaction.
//
// Transactions occupy the bus serially:
//   address-only (retrieve/spill request broadcast)  arb + 1 bus cycle
//   data transfer (64 B block)                       arb + 4 bus cycles
//   spill (address + data together)                  arb + 5 bus cycles
// Durations convert to core cycles via the speed ratio.  A transaction
// requested at cycle `now` is granted at max(now, bus free) — the queueing
// delay is how spill traffic taxes everyone, which is exactly why
// indiscriminate eviction-driven CC can lose (paper Section 1).
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "common/types.hpp"
#include "stats/counters.hpp"

namespace snug::bus {

enum class BusOp : std::uint8_t {
  kRequest,    ///< address-only broadcast (retrieve or spill probe)
  kDataBlock,  ///< 64 B data transfer (response, fill, write-back)
  kSpill,      ///< spill: address + 64 B victim data in one transaction
};

struct BusConfig {
  std::uint32_t width_bytes = 16;
  std::uint32_t speed_ratio = 4;  ///< core cycles per bus cycle
  std::uint32_t arb_cycles = 1;   ///< bus cycles of arbitration
  std::uint32_t block_bytes = 64;
};

/// Bus event counters as SoA words (stats/counters.hpp).  The first
/// three words are indexed directly by BusOp, so the per-transaction
/// kind bump is one add on a computed offset — no switch.
struct BusStats final : stats::CounterWords<BusStats, 6> {
  enum : std::size_t {
    kRequests = 0,  // == BusOp::kRequest
    kDataBlocks,    // == BusOp::kDataBlock
    kSpills,        // == BusOp::kSpill
    kBusyCoreCycles,
    kWaitCoreCycles,
    kRingFullFallbacks,
  };
  static constexpr std::array<std::string_view, kNumWords> kNames = {
      "requests",         "data_blocks",      "spills",
      "busy_core_cycles", "wait_core_cycles", "ring_full_fallbacks"};
  SNUG_COUNTER(requests, kRequests)
  SNUG_COUNTER(data_blocks, kDataBlocks)
  SNUG_COUNTER(spills, kSpills)
  SNUG_COUNTER(busy_core_cycles, kBusyCoreCycles)
  SNUG_COUNTER(wait_core_cycles, kWaitCoreCycles)  ///< grant queueing delay
  SNUG_COUNTER(ring_full_fallbacks, kRingFullFallbacks)
  [[nodiscard]] std::uint64_t& op_count(BusOp op) noexcept {
    return words_[static_cast<std::size_t>(op)];
  }
};

// op_count() and SnoopBus's precomputed duration table index by BusOp
// value; a reordered or inserted enumerator must fail to compile, not
// silently misattribute counts and durations.
static_assert(BusStats::kRequests ==
              static_cast<std::size_t>(BusOp::kRequest));
static_assert(BusStats::kDataBlocks ==
              static_cast<std::size_t>(BusOp::kDataBlock));
static_assert(BusStats::kSpills == static_cast<std::size_t>(BusOp::kSpill));

/// Completion information for one transaction.
struct BusGrant {
  Cycle granted = 0;   ///< cycle the bus was acquired
  Cycle finished = 0;  ///< cycle the transaction left the bus
};

/// Split-transaction semantics: the request and its data return are
/// independent bus tenures, and the bus is FREE between them (e.g. during
/// the DRAM access).  Because data returns are scheduled in the future,
/// the bus tracks its in-flight tenures and grants each new transaction
/// the first gap that fits (first-fit, earliest-first) — a single
/// monotone cursor would wrongly hold the bus across memory latency and
/// serialise the whole CMP.
///
// Event-horizon discipline (mirrors the PR 4 event-skipping core loop):
// tenures live in a bounded ring ordered by start cycle.  Because
// tenures never overlap, their end cycles are ordered too, so tenures
// behind the retirement horizon pop off the head in O(1) — no interval
// list, no erase scan.  The common grant (`now` at/after the last
// tenure's end — a first-fit scan provably lands there) appends at the
// tail in O(1); only a transaction issued while later tenures are
// already booked searches the ring for its first-fit gap: a binary
// search skips the tenures that end before `now`, then a short walk
// finds the gap.  Busy cycles
// accumulate in a running counter, so utilisation() never touches the
// ring.  If an adversarial schedule keeps more than kRingCapacity
// tenures in flight, the bus falls back to granting after the last
// booked tenure (counted in stats().ring_full_fallbacks()); the range
// covered by any tenure the bounded ring stops tracking is sealed
// behind a conflict floor no later grant may start before, so grants
// stay conflict-free even across the fallback — at worst slightly
// later than unbounded first-fit would allow.
class SnoopBus {
 public:
  explicit SnoopBus(const BusConfig& cfg);

  /// Schedules a transaction at/after `now` into the earliest free gap.
  BusGrant transact(Cycle now, BusOp op);

  /// Transaction duration in core cycles (arbitration included).
  [[nodiscard]] Cycle duration(BusOp op) const noexcept {
    return duration_[static_cast<std::size_t>(op)];
  }

  [[nodiscard]] const BusStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_.reset(); }
  void reset(Cycle now = 0) noexcept {
    head_ = 0;
    size_ = 0;
    horizon_ = now;
    floor_ = 0;
  }

  /// Bus utilisation over [0, horizon): the running busy-cycle
  /// accumulator against the horizon.  Survives reset(now) — reset
  /// clears the schedule, reset_stats() the accumulators.
  [[nodiscard]] double utilisation(Cycle horizon) const noexcept;

  /// Number of tracked in-flight tenures (bounded by kRingCapacity).
  [[nodiscard]] std::size_t tracked_intervals() const noexcept {
    return size_;
  }

  /// Ring bound; schedules that exceed it take the fallback grant path.
  static constexpr std::size_t kRingCapacity = 512;

 private:
  struct Tenure {
    Cycle start;
    Cycle end;
  };

  /// Tenures older than this many cycles behind `now` can never affect a
  /// later grant (callers never name cycles further in the past) and are
  /// retired off the head.  Same horizon rule as the pre-ring prune().
  static constexpr Cycle kRetireSlack = 4096;

  [[nodiscard]] Tenure& at(std::size_t i) noexcept {
    return ring_[(head_ + i) & (kRingCapacity - 1)];
  }
  [[nodiscard]] const Tenure& at(std::size_t i) const noexcept {
    return ring_[(head_ + i) & (kRingCapacity - 1)];
  }
  void pop_front() noexcept {
    head_ = (head_ + 1) & (kRingCapacity - 1);
    --size_;
  }

  BusConfig cfg_;
  std::array<Cycle, 3> duration_{};  ///< per-BusOp, precomputed
  std::array<Tenure, kRingCapacity> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  Cycle horizon_ = 0;  ///< monotone retirement horizon
  /// Conflict floor: end of the latest tenure dropped from tracking by
  /// ring pressure or the fallback (0 while the ring has never
  /// overflowed — every simulator schedule).  Grants never start below
  /// it, so untracked tenures can never be double-booked.
  Cycle floor_ = 0;
  BusStats stats_;
};

}  // namespace snug::bus
