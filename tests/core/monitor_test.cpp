#include "core/monitor.hpp"

#include <gtest/gtest.h>

namespace snug::core {
namespace {

MonitorConfig small_cfg() {
  MonitorConfig cfg;
  cfg.num_sets = 8;
  cfg.assoc = 4;
  cfg.k_bits = 4;
  cfg.p = 8;
  cfg.taker_biased = false;  // test the paper's published counter init
  return cfg;
}

TEST(Monitor, ShadowHitIncrementsCounter) {
  CapacityMonitor m(small_cfg());
  m.on_local_eviction(0, 42);
  EXPECT_TRUE(m.on_local_miss(0, 42));
  EXPECT_EQ(m.counter(0).value(), 8U);  // 7 + 1
  EXPECT_TRUE(m.counter(0).msb());
}

TEST(Monitor, MissWithoutShadowEntryIsNeutral) {
  CapacityMonitor m(small_cfg());
  EXPECT_FALSE(m.on_local_miss(0, 99));
  EXPECT_EQ(m.counter(0).value(), 7U);
}

TEST(Monitor, RealHitsDecrementEveryP) {
  CapacityMonitor m(small_cfg());
  for (int i = 0; i < 7; ++i) m.on_local_hit(0);
  EXPECT_EQ(m.counter(0).value(), 7U);
  m.on_local_hit(0);  // 8th hit -> decrement
  EXPECT_EQ(m.counter(0).value(), 6U);
}

TEST(Monitor, ShadowHitCountsTowardDivider) {
  // Section 3.1.2: "after every p hits to the private OR shadow sets".
  CapacityMonitor m(small_cfg());
  for (int i = 0; i < 7; ++i) m.on_local_hit(0);
  m.on_local_eviction(0, 1);
  m.on_local_miss(0, 1);  // shadow hit: +1 and it is the 8th hit: -1
  EXPECT_EQ(m.counter(0).value(), 7U);
}

TEST(Monitor, TakerIdentificationSigmaAboveThreshold) {
  // A set whose shadow-hit fraction is 1/4 (> 1/8) must become a taker.
  CapacityMonitor m(small_cfg());
  for (int round = 0; round < 30; ++round) {
    for (int i = 0; i < 3; ++i) m.on_local_hit(3);
    m.on_local_eviction(3, static_cast<std::uint64_t>(round));
    m.on_local_miss(3, static_cast<std::uint64_t>(round));
  }
  GtVector gt(8);
  m.harvest(gt);
  EXPECT_TRUE(gt.taker(3));
}

TEST(Monitor, GiverIdentificationSigmaBelowThreshold) {
  // Shadow-hit fraction 1/16 (< 1/8): giver.
  CapacityMonitor m(small_cfg());
  for (int round = 0; round < 15; ++round) {
    for (int i = 0; i < 15; ++i) m.on_local_hit(5);
    m.on_local_eviction(5, static_cast<std::uint64_t>(round));
    m.on_local_miss(5, static_cast<std::uint64_t>(round));
  }
  GtVector gt(8);
  m.harvest(gt);
  EXPECT_FALSE(gt.taker(5));
}

TEST(Monitor, HarvestResetsCounters) {
  CapacityMonitor m(small_cfg());
  m.on_local_eviction(0, 1);
  m.on_local_miss(0, 1);
  GtVector gt(8);
  m.harvest(gt);
  EXPECT_EQ(m.counter(0).value(), 7U);
}

TEST(Monitor, CountingDisabledFreezesCounters) {
  CapacityMonitor m(small_cfg());
  m.set_counting(false);
  m.on_local_eviction(0, 1);
  EXPECT_TRUE(m.on_local_miss(0, 1));  // shadow upkeep still works
  EXPECT_EQ(m.counter(0).value(), 7U);  // but no counting
}

TEST(Monitor, ShadowExclusivityAfterRevisit) {
  CapacityMonitor m(small_cfg());
  m.on_local_eviction(2, 77);
  EXPECT_TRUE(m.on_local_miss(2, 77));
  // The entry was consumed; a second miss on the same tag is shadow-cold.
  EXPECT_FALSE(m.on_local_miss(2, 77));
}

TEST(Monitor, SetsAreIndependent) {
  CapacityMonitor m(small_cfg());
  m.on_local_eviction(0, 5);
  EXPECT_FALSE(m.on_local_miss(1, 5));
  EXPECT_TRUE(m.on_local_miss(0, 5));
}

TEST(Monitor, StatsAccumulate) {
  CapacityMonitor m(small_cfg());
  m.on_local_hit(0);
  m.on_local_eviction(0, 1);
  m.on_local_miss(0, 1);
  EXPECT_EQ(m.stats().real_hits(), 1U);
  EXPECT_EQ(m.stats().shadow_inserts(), 1U);
  EXPECT_EQ(m.stats().shadow_hits(), 1U);
}

TEST(Monitor, ResetClearsEverything) {
  CapacityMonitor m(small_cfg());
  m.on_local_eviction(0, 1);
  m.on_local_miss(0, 1);
  m.reset();
  EXPECT_EQ(m.counter(0).value(), 7U);
  EXPECT_EQ(m.stats().shadow_hits(), 0U);
  EXPECT_FALSE(m.on_local_miss(0, 1));  // shadow cleared
}

// ---- Granularity::kCache: one counter and one divider for every set.

TEST(Monitor, OneCounterMovesOnEventsInAnySet) {
  CapacityMonitor m(small_cfg(), Granularity::kCache);
  EXPECT_EQ(m.granularity(), Granularity::kCache);
  m.on_local_eviction(3, 1);
  m.on_local_eviction(6, 2);
  EXPECT_TRUE(m.on_local_miss(3, 1));
  EXPECT_TRUE(m.on_local_miss(6, 2));
  for (SetIndex s = 0; s < 8; ++s) {
    EXPECT_EQ(m.counter(s).value(), 9U) << "set " << s;  // 7 + 2
  }
  // The divider is shared too: 8 hits spread over the sets make one
  // decrement (the two shadow hits above counted as hits 1 and 2).
  for (SetIndex s = 0; s < 6; ++s) m.on_local_hit(s);
  EXPECT_EQ(m.counter(0).value(), 8U);
}

TEST(Monitor, OneCounterHarvestsOneBitIntoEverySet) {
  // Taker-biased reset (MSB set): a reset inside the per-set harvest loop
  // would hand every set after the first the taker reset value.
  MonitorConfig cfg = small_cfg();
  cfg.taker_biased = true;
  CapacityMonitor m(cfg, Granularity::kCache);
  for (int i = 0; i < 8 * 8; ++i) m.on_local_hit(static_cast<SetIndex>(i % 8));
  ASSERT_FALSE(m.counter(0).msb());
  GtVector gt(8);
  gt.set_taker(5, true);
  m.harvest(gt);
  EXPECT_EQ(gt.taker_count(), 0U);
  EXPECT_EQ(m.counter(0).value(), 8U);  // reset after every set read it

  // And the other way: a taker counter marks every set taker.
  for (SetIndex s = 0; s < 8; ++s) {
    m.on_local_eviction(s, 100 + s);
    m.on_local_miss(s, 100 + s);
  }
  ASSERT_TRUE(m.counter(0).msb());
  m.harvest(gt);
  EXPECT_EQ(gt.taker_count(), 8U);
}

}  // namespace
}  // namespace snug::core
