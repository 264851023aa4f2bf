// True-LRU replacement over flat byte-packed state.
//
// The paper assumes true LRU everywhere: its capacity-demand math relies
// on the LRU stack property (Mattson et al. 1970), which is what lets
// SNUG's shadow sets and cache::LruStackProfiler measure per-set demand.
// LRU is therefore the only policy the cache layer implements.
//
// Every set's recency state is `assoc` bytes inside one flat array owned
// by the cache — no per-set allocation, no virtual dispatch.  Callers pass
// the set's byte slice to the free functions below; state[w] is way w's
// recency rank (0 == MRU, assoc-1 == LRU), so the slice is always a
// permutation of [0, assoc).
#pragma once

#include <bit>
#include <cstdint>

#include "common/require.hpp"
#include "common/types.hpp"

namespace snug::cache {

/// The victim scan and the cache's per-set occupancy word build 64-bit
/// way bitmasks, so 64 ways is the hard ceiling (ranks and way indices
/// also fit a byte).
inline constexpr std::uint32_t kMaxReplAssoc = 64;

namespace repl {

/// Initialises one set's ranks to the identity (way 0 MRU).
/// Configuration errors abort in every build type.
inline void init(std::uint8_t* state, std::uint32_t assoc) noexcept {
  SNUG_REQUIRE_MSG(assoc >= 1 && assoc <= kMaxReplAssoc,
                   "replacement state supports 1..%u ways (got %u)",
                   kMaxReplAssoc, assoc);
  for (std::uint32_t w = 0; w < assoc; ++w) {
    state[w] = static_cast<std::uint8_t>(w);
  }
}

/// Moves `way` to the MRU rank: every warmer way ages by one.  Fully
/// branchless — the aging predicate folds into the arithmetic, and when
/// `way` is already MRU the loop adds zeros.  A hit and a fill both
/// make the way MRU.
inline void rank_touch(std::uint8_t* state, std::uint32_t assoc,
                       WayIndex way) noexcept {
  const std::uint8_t old_rank = state[way];
  if (assoc == 4) {
    // The L1 shape — every simulated memory access lands here; the
    // runtime trip count blocks unrolling, so spell the four lanes out.
    state[0] = static_cast<std::uint8_t>(state[0] + (state[0] < old_rank));
    state[1] = static_cast<std::uint8_t>(state[1] + (state[1] < old_rank));
    state[2] = static_cast<std::uint8_t>(state[2] + (state[2] < old_rank));
    state[3] = static_cast<std::uint8_t>(state[3] + (state[3] < old_rank));
    state[way] = 0;
    return;
  }
  for (std::uint32_t w = 0; w < assoc; ++w) {
    const std::uint8_t r = state[w];
    state[w] = static_cast<std::uint8_t>(r + (r < old_rank ? 1 : 0));
  }
  state[way] = 0;
}

/// The way at the coldest rank.  Ranks are a permutation, so the match is
/// unique; the mask scan is branch-free over one cache line of bytes.
[[nodiscard]] inline WayIndex rank_victim(const std::uint8_t* state,
                                          std::uint32_t assoc) noexcept {
  const std::uint8_t lru_rank = static_cast<std::uint8_t>(assoc - 1);
  std::uint64_t m = 0;
  for (WayIndex w = 0; w < assoc; ++w) {
    m |= static_cast<std::uint64_t>(state[w] == lru_rank) << w;
  }
  SNUG_ENSURE(m != 0);  // rank state corrupt: not a permutation
  return static_cast<WayIndex>(std::countr_zero(m));
}

}  // namespace repl
}  // namespace snug::cache
