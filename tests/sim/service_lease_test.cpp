// LeaseTable tests (ISSUE 9): grant/renew/release life cycle, expiry
// scans with injected time, the max_holds poison quarantine that caps
// reassignment loops, and the fail@lease / fail@heartbeat fault-grammar
// ops that drive lost-grant and lost-heartbeat partitions
// deterministically.
#include "sim/service/lease.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/fault.hpp"

namespace snug::sim::service {
namespace {

TEST(LeaseTable, GrantsRenewsAndReleases) {
  LeaseTable table(/*lease_ms=*/100, /*max_holds=*/3);
  ASSERT_TRUE(table.acquire(1, "mixA/SNUG", /*worker=*/0, /*now_ms=*/0));
  EXPECT_EQ(table.live(), 1u);
  // The fp is exclusively held: a second grant is refused.
  EXPECT_FALSE(table.acquire(1, "mixA/SNUG", 1, 10));
  // Renewal works for the holder only.
  EXPECT_TRUE(table.heartbeat(1, 0, 50));
  EXPECT_FALSE(table.heartbeat(1, 1, 50));
  EXPECT_FALSE(table.heartbeat(2, 0, 50)) << "no such lease";
  table.release(1, 1);  // wrong worker: no-op
  EXPECT_EQ(table.live(), 1u);
  table.release(1, 0);
  EXPECT_EQ(table.live(), 0u);
  const LeaseTable::Counters c = table.counters();
  EXPECT_EQ(c.granted, 1u);
  EXPECT_EQ(c.renewed, 1u);
  EXPECT_EQ(c.expired, 0u);
}

TEST(LeaseTable, ScanExpiresOnlyUnrenewedLeases) {
  LeaseTable table(/*lease_ms=*/100, /*max_holds=*/3);
  ASSERT_TRUE(table.acquire(1, "mixA/SNUG", 0, 0));
  ASSERT_TRUE(table.acquire(2, "mixB/L2P", 1, 0));
  EXPECT_TRUE(table.heartbeat(2, 1, 80));

  EXPECT_TRUE(table.scan(99).empty()) << "nothing aged out yet";
  const std::vector<LeaseTable::Expiry> expired = table.scan(120);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].fp, 1u);
  EXPECT_EQ(expired[0].label, "mixA/SNUG");
  EXPECT_EQ(expired[0].worker, 0u);
  EXPECT_EQ(expired[0].held_ms, 120u);
  EXPECT_EQ(expired[0].holds, 1u);
  EXPECT_FALSE(expired[0].poisoned);
  EXPECT_EQ(table.live(), 1u) << "the renewed lease survives";
  // An expired lease is gone: its worker's late heartbeat fails.
  EXPECT_FALSE(table.heartbeat(1, 0, 121));
}

TEST(LeaseTable, LeaseRenewedAfterTheScanClockReadIsFresh) {
  LeaseTable table(/*lease_ms=*/100, /*max_holds=*/3);
  // The supervisor reads its clock (ms 102), then a worker is granted
  // and renews at later ms before the scan takes the lock.
  ASSERT_TRUE(table.acquire(1, "mixA/SNUG", 0, 103));
  EXPECT_TRUE(table.heartbeat(1, 0, 105));
  EXPECT_TRUE(table.scan(102).empty()) << "a lease from the future is fresh";
  EXPECT_EQ(table.live(), 1u);
  EXPECT_EQ(table.counters().expired, 0u);
}

TEST(LeaseTable, PoisonsAfterMaxHoldsGrants) {
  LeaseTable table(/*lease_ms=*/10, /*max_holds=*/2);
  // Grant 1 expires, grant 2 expires — holds reaches max_holds, so the
  // second expiry reports the task poisoned: the reassignment loop is
  // capped, the scheduler quarantines instead of retrying forever.
  ASSERT_TRUE(table.acquire(7, "wedge/SNUG", 0, 0));
  std::vector<LeaseTable::Expiry> e = table.scan(10);
  ASSERT_EQ(e.size(), 1u);
  EXPECT_FALSE(e[0].poisoned);

  ASSERT_TRUE(table.acquire(7, "wedge/SNUG", 1, 20));
  e = table.scan(30);
  ASSERT_EQ(e.size(), 1u);
  EXPECT_TRUE(e[0].poisoned);
  EXPECT_EQ(e[0].holds, 2u);
  const LeaseTable::Counters c = table.counters();
  EXPECT_EQ(c.expired, 2u);
  EXPECT_EQ(c.poisoned, 1u);
}

TEST(LeaseTable, FinishedAndPoisonedTasksLeaveNoGrantCount) {
  LeaseTable table(/*lease_ms=*/10, /*max_holds=*/2);
  // A long-lived service leases each cell once and releases it after
  // its run: nothing per cell may stay behind.
  constexpr std::uint64_t kCells = 100;
  for (std::uint64_t fp = 1; fp <= kCells; ++fp) {
    ASSERT_TRUE(table.acquire(fp, "cell/SNUG", 0, fp));
    EXPECT_TRUE(table.heartbeat(fp, 0, fp + 1));
    table.release(fp, 0);
  }
  EXPECT_EQ(table.live(), 0u);
  EXPECT_EQ(table.tracked_holds(), 0u);

  // An expiry that is requeued keeps its grant count; a straggler's
  // release leaves the replacement's lease and count whole; the
  // replacement's release drops both.
  ASSERT_TRUE(table.acquire(500, "slow/SNUG", 0, 0));
  ASSERT_EQ(table.scan(10).size(), 1u);
  EXPECT_EQ(table.tracked_holds(), 1u);
  ASSERT_TRUE(table.acquire(500, "slow/SNUG", 1, 11));
  table.release(500, 0);
  EXPECT_EQ(table.live(), 1u);
  EXPECT_EQ(table.tracked_holds(), 1u);
  table.release(500, 1);
  EXPECT_EQ(table.tracked_holds(), 0u);

  // A poisoned task is dropped by the scan that poisons it.
  ASSERT_TRUE(table.acquire(600, "wedge/SNUG", 0, 100));
  ASSERT_EQ(table.scan(110).size(), 1u);
  ASSERT_TRUE(table.acquire(600, "wedge/SNUG", 1, 120));
  const std::vector<LeaseTable::Expiry> e = table.scan(130);
  ASSERT_EQ(e.size(), 1u);
  EXPECT_TRUE(e[0].poisoned);
  EXPECT_EQ(table.tracked_holds(), 0u);
}

TEST(LeaseTable, ScanReportsMultipleExpiriesInFingerprintOrder) {
  LeaseTable table(/*lease_ms=*/10, /*max_holds=*/3);
  ASSERT_TRUE(table.acquire(30, "c/S", 2, 0));
  ASSERT_TRUE(table.acquire(10, "a/S", 0, 0));
  ASSERT_TRUE(table.acquire(20, "b/S", 1, 0));
  const std::vector<LeaseTable::Expiry> e = table.scan(50);
  ASSERT_EQ(e.size(), 3u);
  EXPECT_EQ(e[0].fp, 10u);
  EXPECT_EQ(e[1].fp, 20u);
  EXPECT_EQ(e[2].fp, 30u);
}

TEST(LeaseTable, FailAtLeaseDeniesGrantsDeterministically) {
  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(fault::FaultPlan::parse("seed=11; fail@lease:first=1", plan,
                                      error))
      << error;
  fault::ScopedFaultPlan scoped(plan);

  LeaseTable table(/*lease_ms=*/100, /*max_holds=*/3);
  // first=1 is per operation key: the first grant of THIS label is
  // denied, the retry succeeds.
  EXPECT_FALSE(table.acquire(1, "mixA/SNUG", 0, 0));
  EXPECT_TRUE(table.acquire(1, "mixA/SNUG", 0, 1));
  const LeaseTable::Counters c = table.counters();
  EXPECT_EQ(c.denied, 1u);
  EXPECT_EQ(c.granted, 1u);
  EXPECT_EQ(scoped.stats().lease_denials, 1u);
}

TEST(LeaseTable, DroppedHeartbeatLooksRenewedButExpires) {
  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(fault::FaultPlan::parse("seed=3; fail@heartbeat", plan,
                                      error))
      << error;
  fault::ScopedFaultPlan scoped(plan);

  LeaseTable table(/*lease_ms=*/100, /*max_holds=*/3);
  ASSERT_TRUE(table.acquire(1, "mixA/SNUG", 0, 0));
  // The classic partition: the worker is told the renewal landed...
  EXPECT_TRUE(table.heartbeat(1, 0, 90));
  // ...but the supervisor still sees the original renewal time.
  const std::vector<LeaseTable::Expiry> e = table.scan(110);
  ASSERT_EQ(e.size(), 1u);
  EXPECT_EQ(e[0].fp, 1u);
  EXPECT_EQ(table.counters().renewed, 0u);
  EXPECT_EQ(scoped.stats().heartbeat_drops, 1u);
}

}  // namespace
}  // namespace snug::sim::service
