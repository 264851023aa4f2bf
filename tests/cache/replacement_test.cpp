#include "cache/replacement.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.hpp"

namespace snug::cache {
namespace {

/// Owning harness for one set's flat LRU rank bytes.
struct LruState {
  explicit LruState(std::uint32_t a) : assoc(a), state(a, 0) {
    repl::init(state.data(), assoc);
  }
  void on_access(WayIndex w) { repl::rank_touch(state.data(), assoc, w); }
  [[nodiscard]] WayIndex victim() const {
    return repl::rank_victim(state.data(), assoc);
  }
  [[nodiscard]] std::uint32_t rank_of(WayIndex w) const { return state[w]; }

  std::uint32_t assoc;
  std::vector<std::uint8_t> state;
};

TEST(Lru, VictimIsLeastRecentlyUsed) {
  LruState lru(4);
  lru.on_access(0);
  lru.on_access(1);
  lru.on_access(2);
  lru.on_access(3);
  EXPECT_EQ(lru.victim(), 0U);
  lru.on_access(0);
  EXPECT_EQ(lru.victim(), 1U);
}

TEST(Lru, RanksArePermutation) {
  LruState lru(8);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    lru.on_access(static_cast<WayIndex>(rng.below(8)));
    std::set<std::uint32_t> ranks;
    for (WayIndex w = 0; w < 8; ++w) ranks.insert(lru.rank_of(w));
    EXPECT_EQ(ranks.size(), 8U);
    EXPECT_EQ(*ranks.begin(), 0U);
    EXPECT_EQ(*ranks.rbegin(), 7U);
  }
}

TEST(Lru, AccessMakesMru) {
  LruState lru(4);
  lru.on_access(2);
  EXPECT_EQ(lru.rank_of(2), 0U);
}

TEST(Lru, MimicsReferenceStack) {
  // Compare against an explicit list-based LRU model.
  LruState lru(4);
  // Initial ranks are the identity: way 0 is MRU, way 3 is LRU.
  std::vector<WayIndex> model{0, 1, 2, 3};  // MRU front
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    const auto w = static_cast<WayIndex>(rng.below(4));
    lru.on_access(w);
    model.erase(std::find(model.begin(), model.end(), w));
    model.insert(model.begin(), w);
    for (std::size_t r = 0; r < model.size(); ++r) {
      EXPECT_EQ(lru.rank_of(model[r]), r);
    }
    EXPECT_EQ(lru.victim(), model.back());
  }
}

}  // namespace
}  // namespace snug::cache
