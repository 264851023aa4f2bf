// One cache set, as a *view*: CacheSet is a non-owning window onto one
// set's slice of the structure-of-arrays storage owned by SetAssocCache
// (cache/cache.hpp) — a contiguous tag run, a packed LineMeta run and the
// LRU rank bytes.  The lookup scans are branch-light loops over those
// contiguous runs, and recency updates call the LRU rank primitives
// (cache/replacement.hpp) directly; nothing here allocates or makes
// virtual calls.
//
// The set offers mechanism only (lookup / touch / victim / fill /
// invalidate); all policy — whether to spill a victim, where received
// blocks are inserted, which lines may be displaced — lives in the scheme
// layer (src/schemes) and the SNUG controller (src/core).
//
// Like std::span, the view is shallow-const: a `const CacheSet` still
// refers to mutable storage.  Unit tests that need a set without a whole
// cache use SoloSet, which owns single-set arrays and hands out views.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/line.hpp"
#include "cache/replacement.hpp"
#include "common/bitutil.hpp"
#include "common/types.hpp"

namespace snug::cache {

class CacheSet {
 public:
  /// `occupancy` is the set's valid-way bitmask word (bit w set ⟺ way w
  /// holds a valid line) — a one-load find_invalid instead of a meta scan.
  /// `cc_count` is the set's live cooperative-line count; both are derived
  /// state the view maintains through fill/invalidate.  The count lets
  /// find_cc answer "no guests here" from one hot byte instead of walking
  /// the (much larger, usually cache-cold) tag run — the common case for
  /// every peer probe of a retrieve broadcast.
  CacheSet(std::uint64_t* tags, LineMeta* meta, std::uint8_t* repl_state,
           std::uint64_t* occupancy, std::uint16_t* cc_count,
           std::uint32_t assoc) noexcept
      : tags_(tags),
        meta_(meta),
        repl_(repl_state),
        occ_(occupancy),
        cc_count_(cc_count),
        assoc_(assoc) {}

  [[nodiscard]] std::uint32_t assoc() const noexcept { return assoc_; }

  // Two scan strategies, picked by set width (both return the identical
  // way, so simulation output does not depend on the choice):
  //
  //  * narrow sets (L1, <= kBranchFreeScanMaxAssoc ways) — a branch-free
  //    mask pass over the whole tag run, then a metadata check on the
  //    matched candidates (almost always at most one).  An early-exit
  //    scan here takes a data-dependent branch at an unpredictable way
  //    index — a guaranteed ~15-cycle mispredict per lookup on data that
  //    is otherwise L1-resident.
  //  * wide sets (L2 slices) — classic early-exit scan.  Their tag runs
  //    span multiple machine cache lines and are usually cold, so the
  //    scan cost is lines touched, not branches: exiting early skips
  //    whole lines, which beats mispredict-free full scans.

  static constexpr std::uint32_t kBranchFreeScanMaxAssoc = 8;

  /// Way holding a valid *local* (CC==0) line with this tag, or kInvalidWay.
  [[nodiscard]] WayIndex find_local(std::uint64_t tag) const noexcept {
    if (assoc_ <= kBranchFreeScanMaxAssoc) {
      for (std::uint32_t m = tag_match_mask(tag); m != 0; m &= m - 1) {
        const auto w = static_cast<WayIndex>(std::countr_zero(m));
        if ((meta_[w] & (kMetaValid | kMetaCc)) == kMetaValid) return w;
      }
      return kInvalidWay;
    }
    for (WayIndex w = 0; w < assoc_; ++w) {
      if (tags_[w] == tag &&
          (meta_[w] & (kMetaValid | kMetaCc)) == kMetaValid) {
        return w;
      }
    }
    return kInvalidWay;
  }

  /// Way holding a valid *cooperative* (CC==1) line with this tag and the
  /// given flip flag, or kInvalidWay.
  [[nodiscard]] WayIndex find_cc(std::uint64_t tag,
                                 bool flipped) const noexcept {
    if (*cc_count_ == 0) return kInvalidWay;  // no guests: skip the scan
    const LineMeta want = static_cast<LineMeta>(
        kMetaValid | kMetaCc | (flipped ? kMetaFlipped : 0));
    if (assoc_ <= kBranchFreeScanMaxAssoc) {
      for (std::uint32_t m = tag_match_mask(tag); m != 0; m &= m - 1) {
        const auto w = static_cast<WayIndex>(std::countr_zero(m));
        if ((meta_[w] & kMetaKeyMask) == want) return w;
      }
      return kInvalidWay;
    }
    for (WayIndex w = 0; w < assoc_; ++w) {
      if (tags_[w] == tag && (meta_[w] & kMetaKeyMask) == want) return w;
    }
    return kInvalidWay;
  }

  /// First invalid way, or kInvalidWay when the set is full.
  [[nodiscard]] WayIndex find_invalid() const noexcept {
    const std::uint64_t empty = ~*occ_ & low_mask(assoc_);
    if (empty == 0) return kInvalidWay;
    return static_cast<WayIndex>(std::countr_zero(empty));
  }

  [[nodiscard]] bool valid(WayIndex way) const noexcept {
    SNUG_REQUIRE(way < assoc_);
    return (meta_[way] & kMetaValid) != 0;
  }

  [[nodiscard]] bool valid_cc(WayIndex way) const noexcept {
    SNUG_REQUIRE(way < assoc_);
    return (meta_[way] & (kMetaValid | kMetaCc)) == (kMetaValid | kMetaCc);
  }

  /// Marks a hit on `way` (updates recency).
  void touch(WayIndex way) const noexcept {
    SNUG_REQUIRE(way < assoc_);
    SNUG_REQUIRE(valid(way));
    repl::rank_touch(repl_, assoc_, way);
  }

  /// Marks `way` dirty (an L1 write-back landed on it).
  void mark_dirty(WayIndex way) const noexcept {
    SNUG_REQUIRE(valid(way));
    meta_[way] |= kMetaDirty;
  }

  /// Chooses the way a new line would displace: an invalid way if one
  /// exists, otherwise the LRU way.
  [[nodiscard]] WayIndex choose_victim() const noexcept {
    const WayIndex inv = find_invalid();
    if (inv != kInvalidWay) return inv;
    return repl::rank_victim(repl_, assoc_);
  }

  /// Installs `line` into `way` and returns the displaced line (invalid if
  /// the way was empty).  The new line becomes MRU.
  CacheLine fill(WayIndex way, const CacheLine& line) const noexcept {
    SNUG_REQUIRE(way < assoc_);
    SNUG_REQUIRE(line.valid);
    const CacheLine displaced = unpack_line(tags_[way], meta_[way]);
    tags_[way] = line.tag;
    meta_[way] = pack_meta(line);
    *occ_ |= std::uint64_t{1} << way;
    const int cc_delta =
        (line.cc ? 1 : 0) - ((displaced.valid && displaced.cc) ? 1 : 0);
    if (cc_delta != 0) {  // local fills displacing local lines skip the store
      *cc_count_ = static_cast<std::uint16_t>(
          static_cast<int>(*cc_count_) + cc_delta);
    }
    repl::rank_touch(repl_, assoc_, way);
    return displaced;
  }

  void invalidate(WayIndex way) const noexcept {
    SNUG_REQUIRE(way < assoc_);
    if (valid_cc(way)) {
      *cc_count_ = static_cast<std::uint16_t>(*cc_count_ - 1);
    }
    tags_[way] = 0;
    meta_[way] = kMetaInvalid;
    *occ_ &= ~(std::uint64_t{1} << way);
    // An invalid way is picked before the LRU way, so the ranks need no
    // update here.
  }

  /// The line at `way`, unpacked (a value — storage stays SoA).
  [[nodiscard]] CacheLine line(WayIndex way) const noexcept {
    SNUG_REQUIRE(way < assoc_);
    return unpack_line(tags_[way], meta_[way]);
  }

  [[nodiscard]] std::uint32_t valid_count() const noexcept {
    std::uint32_t n = 0;
    for (WayIndex w = 0; w < assoc_; ++w) {
      n += (meta_[w] & kMetaValid) != 0 ? 1 : 0;
    }
    return n;
  }

  [[nodiscard]] std::uint32_t cc_count() const noexcept { return *cc_count_; }

 private:
  /// Bitmask of ways whose tag equals `tag` (validity not yet checked).
  /// The 4-way shape is the L1 configuration — the innermost probe of
  /// the whole simulator — and gets a straight-line unrolled pass; the
  /// generic loop's trip count is only known at run time, which blocks
  /// the compiler from unrolling it.
  [[nodiscard]] std::uint32_t tag_match_mask(
      std::uint64_t tag) const noexcept {
    if (assoc_ == 4) {
      return static_cast<std::uint32_t>(tags_[0] == tag) |
             (static_cast<std::uint32_t>(tags_[1] == tag) << 1) |
             (static_cast<std::uint32_t>(tags_[2] == tag) << 2) |
             (static_cast<std::uint32_t>(tags_[3] == tag) << 3);
    }
    std::uint32_t m = 0;
    for (WayIndex w = 0; w < assoc_; ++w) {
      m |= static_cast<std::uint32_t>(tags_[w] == tag) << w;
    }
    return m;
  }

  std::uint64_t* tags_;
  LineMeta* meta_;
  std::uint8_t* repl_;
  std::uint64_t* occ_;
  std::uint16_t* cc_count_;
  std::uint32_t assoc_;
};

/// An owning single set: the harness unit tests and micro-experiments use
/// when they want CacheSet mechanics without building a whole cache.
class SoloSet {
 public:
  explicit SoloSet(std::uint32_t assoc);

  /// The view; valid as long as this SoloSet is alive.
  [[nodiscard]] CacheSet set() noexcept {
    return {tags_.data(), meta_.data(), repl_.data(), &occ_, &cc_count_,
            static_cast<std::uint32_t>(tags_.size())};
  }

 private:
  std::vector<std::uint64_t> tags_;
  std::vector<LineMeta> meta_;
  std::vector<std::uint8_t> repl_;
  std::uint64_t occ_ = 0;
  std::uint16_t cc_count_ = 0;
};

}  // namespace snug::cache
