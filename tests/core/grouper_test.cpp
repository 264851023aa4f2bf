#include "core/grouper.hpp"

#include <gtest/gtest.h>

namespace snug::core {
namespace {

// Exhaustive check of the Figure 8 case analysis over all four G/T
// configurations of a buddy pair.
TEST(Grouper, Figure8CaseAnalysisExhaustive) {
  for (const bool home_taker : {false, true}) {
    for (const bool buddy_taker : {false, true}) {
      GtVector gt(4);
      gt.set_taker(2, home_taker);
      gt.set_taker(3, buddy_taker);
      const SpillPlacement placement = choose_spill_placement(gt, 2);
      if (!home_taker) {
        EXPECT_EQ(placement, SpillPlacement::kSame);      // Case 1
      } else if (!buddy_taker) {
        EXPECT_EQ(placement, SpillPlacement::kFlipped);   // Case 2
      } else {
        EXPECT_EQ(placement, SpillPlacement::kNone);      // Case 3
      }
    }
  }
}

TEST(Grouper, Case1PrefersSameIndexEvenIfBuddyIsGiver) {
  // When both are givers the same-index placement wins (Figure 8 Case 1).
  GtVector gt(4);
  gt.set_taker(2, false);
  gt.set_taker(3, false);
  EXPECT_EQ(choose_spill_placement(gt, 2), SpillPlacement::kSame);
}

TEST(Grouper, BuddyPairsAreSymmetric) {
  GtVector gt(8);
  gt.set_taker(4, true);
  gt.set_taker(5, false);
  // Home 4 (taker) flips into 5; home 5 (giver) stays at 5.
  EXPECT_EQ(choose_spill_placement(gt, 4), SpillPlacement::kFlipped);
  EXPECT_EQ(choose_spill_placement(gt, 5), SpillPlacement::kSame);
}

TEST(Grouper, BuddyOfIsInvolution) {
  for (SetIndex s = 0; s < 1024; ++s) {
    EXPECT_EQ(buddy_of(buddy_of(s)), s);
    EXPECT_EQ(buddy_of(s) ^ s, 1U);
  }
}

TEST(Grouper, RetrieveSearchMatchesGtState) {
  GtVector gt(4);
  gt.set_taker(2, false);
  gt.set_taker(3, true);
  const RetrieveSearch s2 = retrieve_search(gt, 2);
  EXPECT_TRUE(s2.same);
  EXPECT_FALSE(s2.flipped);
  const RetrieveSearch s3 = retrieve_search(gt, 3);
  EXPECT_FALSE(s3.same);   // set 3 is a taker
  EXPECT_TRUE(s3.flipped);  // its buddy (2) is a giver
}

TEST(Grouper, RetrieveSearchNoneWhenBothTakers) {
  GtVector gt(4);
  gt.set_taker(0, true);
  gt.set_taker(1, true);
  const RetrieveSearch s = retrieve_search(gt, 0);
  EXPECT_FALSE(s.same);
  EXPECT_FALSE(s.flipped);
}

TEST(Grouper, SearchCoversExactlyTheLegalPlacements) {
  // Property: for every G/T configuration, a spill placed by
  // choose_spill_placement is findable by retrieve_search.
  for (const bool home_taker : {false, true}) {
    for (const bool buddy_taker : {false, true}) {
      GtVector gt(4);
      gt.set_taker(2, home_taker);
      gt.set_taker(3, buddy_taker);
      const SpillPlacement placement = choose_spill_placement(gt, 2);
      const RetrieveSearch search = retrieve_search(gt, 2);
      if (placement == SpillPlacement::kSame) {
        EXPECT_TRUE(search.same);
      }
      if (placement == SpillPlacement::kFlipped) {
        EXPECT_TRUE(search.flipped);
      }
    }
  }
}

TEST(Grouper, ToStringNames) {
  EXPECT_STREQ(to_string(SpillPlacement::kNone), "none");
  EXPECT_STREQ(to_string(SpillPlacement::kSame), "same");
  EXPECT_STREQ(to_string(SpillPlacement::kFlipped), "flipped");
}

TEST(GtVectorBasics, SetAndCount) {
  GtVector gt(16);
  EXPECT_EQ(gt.taker_count(), 0U);
  gt.set_taker(3, true);
  gt.set_taker(9, true);
  EXPECT_EQ(gt.taker_count(), 2U);
  EXPECT_TRUE(gt.taker(3));
  EXPECT_TRUE(gt.giver(4));
  gt.clear();
  EXPECT_EQ(gt.taker_count(), 0U);
}

}  // namespace
}  // namespace snug::core
