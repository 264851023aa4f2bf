#include "cache/cache.hpp"

#include <gtest/gtest.h>

namespace snug::cache {
namespace {

CacheGeometry small_geo() { return CacheGeometry(8 << 10, 4, 64); }  // 32 sets

Addr make_addr(const CacheGeometry& g, std::uint64_t tag, SetIndex set) {
  return g.addr_of(tag, set);
}

TEST(Cache, MissThenHit) {
  SetAssocCache c("l2", small_geo());
  const Addr a = make_addr(c.geometry(), 5, 3);
  EXPECT_FALSE(c.access_local(a, false).hit);
  c.fill_local(a, false, 0);
  EXPECT_TRUE(c.access_local(a, false).hit);
  EXPECT_EQ(c.stats().hits(), 1U);
  EXPECT_EQ(c.stats().misses(), 1U);
}

TEST(Cache, ProbeDoesNotDisturbState) {
  SetAssocCache c("l2", small_geo());
  const Addr a = make_addr(c.geometry(), 5, 3);
  c.fill_local(a, false, 0);
  const auto before = c.stats().accesses();
  EXPECT_TRUE(c.probe_local(a).hit);
  EXPECT_EQ(c.stats().accesses(), before);
}

TEST(Cache, WriteSetsDirty) {
  SetAssocCache c("l2", small_geo());
  const Addr a = make_addr(c.geometry(), 5, 3);
  c.fill_local(a, false, 0);
  const auto res = c.access_local(a, true);
  EXPECT_TRUE(c.set(res.set).line(res.way).dirty);
}

TEST(Cache, FillEvictsLruWhenFull) {
  SetAssocCache c("l2", small_geo());
  const auto& g = c.geometry();
  for (std::uint64_t t = 0; t < 4; ++t) {
    c.fill_local(make_addr(g, t, 0), false, 0);
  }
  const Eviction ev = c.fill_local(make_addr(g, 9, 0), false, 0);
  EXPECT_TRUE(ev.happened());
  EXPECT_EQ(ev.line.tag, 0U);  // oldest fill was tag 0
  EXPECT_EQ(ev.set, 0U);
}

TEST(Cache, EvictionKindCounters) {
  SetAssocCache c("l2", small_geo());
  const auto& g = c.geometry();
  for (std::uint64_t t = 0; t < 4; ++t) {
    c.fill_local(make_addr(g, t, 0), t == 0, 0);  // tag 0 dirty
  }
  c.fill_local(make_addr(g, 10, 0), false, 0);  // displaces dirty tag 0
  EXPECT_EQ(c.stats().evict_dirty(), 1U);
  c.fill_local(make_addr(g, 11, 0), false, 0);  // displaces clean tag 1
  EXPECT_EQ(c.stats().evict_clean(), 1U);
}

TEST(Cache, CcInsertAndLookupSameIndex) {
  SetAssocCache c("l2", small_geo());
  const Addr a = make_addr(c.geometry(), 5, 6);
  c.insert_cc(a, /*owner=*/2, /*flipped=*/false);
  const CcLocation loc = c.lookup_cc(a);
  ASSERT_TRUE(loc.found);
  EXPECT_EQ(loc.set, 6U);
  EXPECT_FALSE(loc.flipped);
  EXPECT_EQ(c.set(loc.set).line(loc.way).owner, 2U);
}

TEST(Cache, CcInsertFlippedLandsInBuddySet) {
  SetAssocCache c("l2", small_geo());
  const auto& g = c.geometry();
  const Addr a = make_addr(g, 5, 6);
  c.insert_cc(a, 2, /*flipped=*/true);
  const CcLocation loc = c.lookup_cc(a);
  ASSERT_TRUE(loc.found);
  EXPECT_EQ(loc.set, g.buddy_set(6));
  EXPECT_TRUE(loc.flipped);
  // The home set itself holds nothing.
  EXPECT_EQ(c.set(6).valid_count(), 0U);
}

TEST(Cache, LookupCcDistinguishesBuddyHomeBlocks) {
  // Block X of set 6 spilled flipped (lives in set 7, f=1) must not be
  // confused with block Y of set 7 spilled unflipped (lives in set 7, f=0)
  // even when X and Y share a tag.
  SetAssocCache c("l2", small_geo());
  const auto& g = c.geometry();
  const Addr x = make_addr(g, 5, 6);
  const Addr y = make_addr(g, 5, 7);
  c.insert_cc(x, 2, true);
  c.insert_cc(y, 3, false);
  const CcLocation lx = c.lookup_cc(x);
  const CcLocation ly = c.lookup_cc(y);
  ASSERT_TRUE(lx.found);
  ASSERT_TRUE(ly.found);
  EXPECT_EQ(lx.set, 7U);
  EXPECT_EQ(ly.set, 7U);
  EXPECT_NE(lx.way, ly.way);
  EXPECT_TRUE(lx.flipped);
  EXPECT_FALSE(ly.flipped);
  EXPECT_EQ(c.set(7).line(lx.way).owner, 2U);
  EXPECT_EQ(c.set(7).line(ly.way).owner, 3U);
}

TEST(Cache, ForwardAndInvalidateRemovesCopy) {
  SetAssocCache c("l2", small_geo());
  const Addr a = make_addr(c.geometry(), 5, 6);
  c.insert_cc(a, 2, false);
  const CcLocation loc = c.lookup_cc(a);
  c.forward_and_invalidate(loc);
  EXPECT_FALSE(c.lookup_cc(a).found);
  EXPECT_EQ(c.stats().cc_forwarded(), 1U);
  EXPECT_EQ(c.stats().cc_invalidated(), 1U);
  EXPECT_EQ(c.total_cc_lines(), 0U);
}

TEST(Cache, CcInsertDisplacementIsReported) {
  SetAssocCache c("l2", small_geo());
  const auto& g = c.geometry();
  for (std::uint64_t t = 0; t < 4; ++t) {
    c.fill_local(make_addr(g, t, 6), false, 0);
  }
  const Eviction ev = c.insert_cc(make_addr(g, 50, 6), 1, false);
  EXPECT_TRUE(ev.happened());
  EXPECT_FALSE(ev.line.cc);
  EXPECT_EQ(c.stats().cc_inserted(), 1U);
}

TEST(Cache, TotalCcLines) {
  SetAssocCache c("l2", small_geo());
  const auto& g = c.geometry();
  c.insert_cc(make_addr(g, 1, 0), 1, false);
  c.insert_cc(make_addr(g, 2, 0), 1, true);
  c.insert_cc(make_addr(g, 3, 5), 2, false);
  EXPECT_EQ(c.total_cc_lines(), 3U);
}

TEST(Cache, LocalAccessNeverHitsCcLine) {
  // A cooperative copy belongs to a peer; the local core must treat the
  // address as a miss and go through the retrieve protocol.
  SetAssocCache c("l2", small_geo());
  const Addr a = make_addr(c.geometry(), 5, 6);
  c.insert_cc(a, 2, false);
  EXPECT_FALSE(c.access_local(a, false).hit);
}

TEST(Cache, StatsResetKeepsContents) {
  SetAssocCache c("l2", small_geo());
  const Addr a = make_addr(c.geometry(), 5, 3);
  c.fill_local(a, false, 0);
  c.access_local(a, false);
  c.reset_stats();
  EXPECT_EQ(c.stats().hits(), 0U);
  EXPECT_TRUE(c.access_local(a, false).hit);  // contents survived
}

}  // namespace
}  // namespace snug::cache
