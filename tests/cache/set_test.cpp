#include "cache/set.hpp"

#include <gtest/gtest.h>

namespace snug::cache {
namespace {

CacheLine local_line(std::uint64_t tag, CoreId owner = 0) {
  CacheLine l;
  l.tag = tag;
  l.valid = true;
  l.owner = owner;
  return l;
}

CacheLine cc_line(std::uint64_t tag, bool flipped, CoreId owner = 1) {
  CacheLine l = local_line(tag, owner);
  l.cc = true;
  l.flipped = flipped;
  return l;
}

TEST(CacheSet, FillAndFindLocal) {
  SoloSet solo(4);
  const CacheSet set = solo.set();
  EXPECT_EQ(set.find_local(7), kInvalidWay);
  const WayIndex w = set.choose_victim();
  set.fill(w, local_line(7));
  EXPECT_EQ(set.find_local(7), w);
  EXPECT_EQ(set.valid_count(), 1U);
}

TEST(CacheSet, FindLocalIgnoresCcLines) {
  SoloSet solo(4);
  const CacheSet set = solo.set();
  set.fill(0, cc_line(7, false));
  EXPECT_EQ(set.find_local(7), kInvalidWay);
  EXPECT_EQ(set.find_cc(7, false), 0U);
}

TEST(CacheSet, FindCcMatchesFlipFlagExactly) {
  SoloSet solo(4);
  const CacheSet set = solo.set();
  set.fill(0, cc_line(7, /*flipped=*/true));
  EXPECT_EQ(set.find_cc(7, true), 0U);
  EXPECT_EQ(set.find_cc(7, false), kInvalidWay);
}

TEST(CacheSet, LocalAndFlippedCcWithSameTagCoexist) {
  // A local line of this set and a flipped cooperative line from the buddy
  // index can carry identical tags; they are different blocks.
  SoloSet solo(4);
  const CacheSet set = solo.set();
  set.fill(0, local_line(7));
  set.fill(1, cc_line(7, /*flipped=*/true));
  EXPECT_EQ(set.find_local(7), 0U);
  EXPECT_EQ(set.find_cc(7, true), 1U);
}

TEST(CacheSet, ChooseVictimPrefersInvalid) {
  SoloSet solo(4);
  const CacheSet set = solo.set();
  set.fill(0, local_line(1));
  set.fill(1, local_line(2));
  const WayIndex v = set.choose_victim();
  EXPECT_GE(v, 2U);  // an invalid way, not an occupied one
}

TEST(CacheSet, LruEvictionOrder) {
  SoloSet solo(2);
  const CacheSet set = solo.set();
  set.fill(set.choose_victim(), local_line(1));
  set.fill(set.choose_victim(), local_line(2));
  set.touch(set.find_local(1));  // 1 is now MRU
  const WayIndex v = set.choose_victim();
  EXPECT_EQ(set.line(v).tag, 2U);
}

TEST(CacheSet, FillReturnsDisplaced) {
  SoloSet solo(1);
  const CacheSet set = solo.set();
  set.fill(0, local_line(1));
  const CacheLine d = set.fill(0, local_line(2));
  EXPECT_TRUE(d.valid);
  EXPECT_EQ(d.tag, 1U);
}

TEST(CacheSet, InvalidateFreesWay) {
  SoloSet solo(2);
  const CacheSet set = solo.set();
  set.fill(0, local_line(1));
  set.invalidate(0);
  EXPECT_FALSE(set.line(0).valid);
  EXPECT_EQ(set.find_local(1), kInvalidWay);
  EXPECT_EQ(set.choose_victim(), 0U);
}

TEST(CacheSet, CcCount) {
  SoloSet solo(4);
  const CacheSet set = solo.set();
  set.fill(0, local_line(1));
  set.fill(1, cc_line(2, false));
  set.fill(2, cc_line(3, true));
  EXPECT_EQ(set.cc_count(), 2U);
  EXPECT_EQ(set.valid_count(), 3U);
}

TEST(CacheSet, DirtyBitSurvivesFillAndDisplace) {
  SoloSet solo(1);
  const CacheSet set = solo.set();
  CacheLine l = local_line(5);
  l.dirty = true;
  set.fill(0, l);
  const CacheLine d = set.fill(0, local_line(6));
  EXPECT_TRUE(d.dirty);
}

}  // namespace
}  // namespace snug::cache
