// Property tests for the bus's first-fit interval scheduling — the
// split-transaction behaviour that keeps the bus free during DRAM waits.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <utility>
#include <vector>

#include "bus/snoop_bus.hpp"
#include "common/rng.hpp"

namespace snug::bus {
namespace {

BusConfig paper_bus() { return BusConfig{16, 4, 1, 64}; }

TEST(BusInterval, GapBetweenRequestAndFutureDataIsUsable) {
  SnoopBus bus(paper_bus());
  // Miss: request now, data return ~300 cycles later.
  const BusGrant req = bus.transact(0, BusOp::kRequest);
  const BusGrant data = bus.transact(300, BusOp::kDataBlock);
  EXPECT_EQ(req.finished, 8U);
  EXPECT_EQ(data.granted, 300U);
  // Another core's request at t=10 must slot into the idle gap, not wait
  // behind the future data tenure.
  const BusGrant other = bus.transact(10, BusOp::kRequest);
  EXPECT_EQ(other.granted, 10U);
  EXPECT_EQ(other.finished, 18U);
}

TEST(BusInterval, SmallGapTooTightPushesPastReservation) {
  SnoopBus bus(paper_bus());
  bus.transact(0, BusOp::kRequest);           // [0, 8)
  bus.transact(12, BusOp::kRequest);          // [12, 20)
  // A data transfer (20 cycles) at t=0 cannot fit in [8,12); it must go
  // after the second reservation.
  const BusGrant data = bus.transact(8, BusOp::kDataBlock);
  EXPECT_EQ(data.granted, 20U);
}

TEST(BusInterval, ReservationsNeverOverlap) {
  SnoopBus bus(paper_bus());
  Rng rng(2026);
  std::vector<std::pair<Cycle, Cycle>> grants;
  Cycle now = 0;
  for (int i = 0; i < 2000; ++i) {
    now += rng.below(30);
    const auto op = static_cast<BusOp>(rng.below(3));
    // Mix of "now" and "future" (DRAM return) transactions.
    const Cycle at = rng.chance(0.3) ? now + 300 : now;
    const BusGrant g = bus.transact(at, op);
    EXPECT_GE(g.granted, at);
    EXPECT_EQ(g.finished - g.granted, bus.duration(op));
    grants.emplace_back(g.granted, g.finished);
  }
  std::sort(grants.begin(), grants.end());
  for (std::size_t i = 1; i < grants.size(); ++i) {
    EXPECT_LE(grants[i - 1].second, grants[i].first)
        << "overlap at grant " << i;
  }
}

TEST(BusInterval, PruningBoundsTrackedIntervals) {
  SnoopBus bus(paper_bus());
  for (Cycle t = 0; t < 2'000'000; t += 50) {
    bus.transact(t, BusOp::kRequest);
  }
  // The interval list must stay small (pruned behind the moving horizon),
  // or a long simulation would degrade quadratically.
  EXPECT_LT(bus.tracked_intervals(), 300U);
}

TEST(BusInterval, BusyAccountingMatchesDurations) {
  SnoopBus bus(paper_bus());
  bus.transact(0, BusOp::kRequest);
  bus.transact(0, BusOp::kDataBlock);
  bus.transact(0, BusOp::kSpill);
  EXPECT_EQ(bus.stats().busy_core_cycles(), 8U + 20U + 24U);
}

TEST(BusInterval, ResetClearsSchedule) {
  SnoopBus bus(paper_bus());
  bus.transact(0, BusOp::kDataBlock);
  bus.reset(0);
  const BusGrant g = bus.transact(0, BusOp::kRequest);
  EXPECT_EQ(g.granted, 0U);
}

TEST(BusInterval, UtilisationAccumulatesAcrossReset) {
  SnoopBus bus(paper_bus());
  bus.transact(0, BusOp::kRequest);  // 8 busy cycles
  EXPECT_DOUBLE_EQ(bus.utilisation(80), 0.1);
  // reset(now) clears the *schedule* (tracked tenures), not the busy
  // accumulator: measurement windows are cut with reset_stats().
  bus.reset(1000);
  EXPECT_EQ(bus.tracked_intervals(), 0U);
  EXPECT_DOUBLE_EQ(bus.utilisation(80), 0.1);
  bus.transact(1000, BusOp::kRequest);  // 8 more busy cycles
  EXPECT_DOUBLE_EQ(bus.utilisation(160), 0.1);
  // reset_stats() zeroes the accumulator; the schedule survives.
  bus.reset_stats();
  EXPECT_DOUBLE_EQ(bus.utilisation(160), 0.0);
  EXPECT_EQ(bus.tracked_intervals(), 1U);
}

TEST(BusInterval, RingFullFallbackStaysConflictFree) {
  SnoopBus bus(paper_bus());
  // Adversarial schedule: every transaction is issued at cycle 0, so no
  // tenure ever retires (the horizon never advances) and the ring must
  // overflow.  First-fit packs the schedule back to back, so even the
  // fallback grants (after the last booked tenure) coincide with what
  // unbounded first-fit would produce.
  const std::size_t n = SnoopBus::kRingCapacity + 64;
  std::vector<BusGrant> grants;
  grants.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    grants.push_back(bus.transact(0, BusOp::kRequest));
  }
  EXPECT_GT(bus.stats().ring_full_fallbacks(), 0U);
  EXPECT_LE(bus.tracked_intervals(), SnoopBus::kRingCapacity);
  const Cycle dur = bus.duration(BusOp::kRequest);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(grants[i].granted, i * dur) << "grant " << i;
    EXPECT_EQ(grants[i].finished, (i + 1) * dur);
  }
  // The fallback dropped live tenures from tracking; their ranges are
  // sealed behind the conflict floor, so even a transaction issued at
  // cycle 0 afterwards cannot be granted inside an untracked tenure.
  const BusGrant late = bus.transact(0, BusOp::kRequest);
  EXPECT_GE(late.granted, n * dur);
  grants.push_back(late);
  std::sort(grants.begin(), grants.end(),
            [](const BusGrant& a, const BusGrant& b) {
              return a.granted < b.granted;
            });
  for (std::size_t i = 1; i < grants.size(); ++i) {
    EXPECT_LE(grants[i - 1].finished, grants[i].granted)
        << "overlap at grant " << i;
  }
}

TEST(BusInterval, RingPressureRetiresDeadTenuresBeforeFallingBack) {
  SnoopBus bus(paper_bus());
  // Fill the ring with future tenures issued from a fixed early cycle,
  // then advance time far past all of them: pressure retirement (ends
  // <= now) must make room without burning a fallback.
  for (std::size_t i = 0; i < SnoopBus::kRingCapacity; ++i) {
    bus.transact(10, BusOp::kRequest);
  }
  EXPECT_EQ(bus.tracked_intervals(), SnoopBus::kRingCapacity);
  // All booked tenures end by `last_end`, which is still within the
  // retirement slack of the horizon — only the pressure path (ends <=
  // now) can reclaim the slots.
  const Cycle last_end =
      10 + SnoopBus::kRingCapacity * bus.duration(BusOp::kRequest);
  const BusGrant g = bus.transact(last_end, BusOp::kRequest);
  EXPECT_EQ(g.granted, last_end);
  EXPECT_EQ(bus.stats().ring_full_fallbacks(), 0U);
  EXPECT_LT(bus.tracked_intervals(), SnoopBus::kRingCapacity);
}

/// The bus's grant rule as a plain linear first-fit over a deque: the
/// same horizon retirement, ring-pressure retirement, conflict floor
/// and ring-full fallback as SnoopBus, with every slow-path grant found
/// by walking from the oldest tracked tenure.  The differential test
/// below pins SnoopBus's searched first-fit to it grant for grant.
class LinearFirstFit {
 public:
  explicit LinearFirstFit(const SnoopBus& durations) : bus_(durations) {}

  BusGrant transact(Cycle now, BusOp op) {
    const Cycle dur = bus_.duration(op);
    constexpr Cycle kSlack = 4096;  // SnoopBus::kRetireSlack
    if (now > kSlack && now - kSlack > horizon_) horizon_ = now - kSlack;
    while (!ring_.empty() && ring_.front().second < horizon_) {
      ring_.pop_front();
    }
    if (ring_.size() == SnoopBus::kRingCapacity) {
      while (!ring_.empty() && ring_.front().second <= now) {
        floor_ = std::max(floor_, ring_.front().second);
        ring_.pop_front();
      }
    }
    Cycle t = std::max(now, floor_);
    std::size_t pos = 0;
    for (; pos < ring_.size(); ++pos) {
      if (t + dur <= ring_[pos].first) break;
      t = std::max(t, ring_[pos].second);
    }
    if (ring_.size() == SnoopBus::kRingCapacity) {
      t = std::max(t, ring_.back().second);
      floor_ = std::max(floor_, ring_.front().second);
      ring_.pop_front();
      pos = ring_.size();
    }
    ring_.insert(ring_.begin() + static_cast<std::ptrdiff_t>(pos),
                 {t, t + dur});
    return {t, t + dur};
  }

 private:
  const SnoopBus& bus_;
  std::deque<std::pair<Cycle, Cycle>> ring_;  ///< (start, end), start order
  Cycle horizon_ = 0;
  Cycle floor_ = 0;
};

TEST(BusInterval, SearchedFirstFitMatchesLinearReference) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SnoopBus bus(paper_bus());
    LinearFirstFit ref(bus);
    Rng rng(seed);
    Cycle now = 0;
    for (int i = 0; i < 20'000; ++i) {
      const auto op = static_cast<BusOp>(rng.below(3));
      Cycle at = now;
      if (const int k = i % 5000; k < 700) {
        // Burst phase: a frozen clock keeps the horizon still while
        // requests pile up behind each other, so the ring fills with
        // live tenures, pressure retirement reclaims only some and the
        // fallback runs.
        if (k % 5 == 0) at = now + rng.below(2000);
      } else {
        now += rng.below(40);
        // Requests racing already-booked DRAM returns (slow path),
        // stragglers from behind the clock, and plain in-order grants.
        const std::uint64_t kind = rng.below(10);
        if (kind < 3) at = now + 200 + rng.below(200);
        if (kind == 3) at = now > 3000 ? now - rng.below(3000) : 0;
      }
      const BusGrant got = bus.transact(at, op);
      const BusGrant want = ref.transact(at, op);
      ASSERT_EQ(got.granted, want.granted) << "seed " << seed << " op " << i;
      ASSERT_EQ(got.finished, want.finished) << "seed " << seed << " op " << i;
    }
    EXPECT_GT(bus.stats().ring_full_fallbacks(), 0U) << "seed " << seed;
  }
}

}  // namespace
}  // namespace snug::bus
