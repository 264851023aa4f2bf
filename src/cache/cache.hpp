// A set-associative cache with the cooperative-caching mechanism hooks the
// scheme layer needs:
//
//  * local path    — access_local / fill_local, used by the owning core;
//  * cooperative   — insert_cc / lookup_cc / invalidate, used when a peer
//                    spills into or retrieves from this cache, including the
//                    SNUG index-bit-flipped placement (f bit);
//  * inspection    — per-set access for invariant checks and statistics.
//
// The cache is pure mechanism: *whether* to spill, *which* peer receives,
// and *where* a received block may be placed are decided by src/schemes and
// src/core.  Timing lives in src/sim; this class is cycle-free.
//
// Storage is set-blocked structure-of-arrays (AoSoA), owned flat by the
// cache: each set occupies one fixed-stride, cache-line-aligned block
// holding its contiguous tag run, its valid-way occupancy word, its live
// guest count, its packed LineMeta run and its LRU rank bytes — in that
// order.  Within a set the runs are still SoA (the scans in
// cache/set.hpp walk contiguous same-type runs), but everything one
// lookup touches now lives in the same block: a 4-way L1 set is exactly
// ONE host cache line where the former parallel-array layout touched
// four, and a 16-way L2 set is three.  Every cache is true LRU
// (cache/replacement.hpp), the policy the paper's capacity-demand math
// assumes.  set() hands out CacheSet views into the block
// (shallow-const, like std::span).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/geometry.hpp"
#include "cache/set.hpp"
#include "common/types.hpp"
#include "stats/counters.hpp"

namespace snug::cache {

/// Result of a local lookup.
struct AccessResult {
  bool hit = false;
  SetIndex set = 0;
  WayIndex way = kInvalidWay;
};

/// A line displaced by a fill, together with where it lived.
struct Eviction {
  CacheLine line;  ///< line.valid == false when nothing was displaced
  SetIndex set = 0;
  [[nodiscard]] bool happened() const noexcept { return line.valid; }
};

/// Location of a cooperatively cached block found by lookup_cc.
struct CcLocation {
  bool found = false;
  SetIndex set = 0;       ///< physical set the line lives in
  WayIndex way = kInvalidWay;
  bool flipped = false;   ///< true when set == buddy of the home index
};

/// Hot-path counters as SoA words (stats/counters.hpp).  The aggregate
/// `accesses` is derived (hits + misses) at report time, so the L1 probe
/// — the simulator's innermost loop — bumps exactly one word per access.
struct CacheStats final : stats::CounterWords<CacheStats, 9> {
  enum : std::size_t {
    kHits,
    kMisses,
    kFills,
    kEvictClean,
    kEvictDirty,
    kEvictCc,
    kCcInserted,
    kCcForwarded,
    kCcInvalidated,
  };
  static constexpr std::array<std::string_view, kNumWords> kNames = {
      "hits",        "misses",       "fills",
      "evict_clean", "evict_dirty",  "evict_cc",
      "cc_inserted", "cc_forwarded", "cc_invalidated"};
  SNUG_COUNTER(hits, kHits)
  SNUG_COUNTER(misses, kMisses)
  SNUG_COUNTER(fills, kFills)
  SNUG_COUNTER(evict_clean, kEvictClean)
  SNUG_COUNTER(evict_dirty, kEvictDirty)
  SNUG_COUNTER(evict_cc, kEvictCc)            ///< guests displaced
  SNUG_COUNTER(cc_inserted, kCcInserted)      ///< spills received
  SNUG_COUNTER(cc_forwarded, kCcForwarded)    ///< guest hits served to peers
  SNUG_COUNTER(cc_invalidated, kCcInvalidated)

  /// Derived: every local lookup is exactly one hit or one miss.
  [[nodiscard]] std::uint64_t accesses() const noexcept {
    return hits() + misses();
  }
};

class SetAssocCache {
 public:
  SetAssocCache(std::string name, const CacheGeometry& geo);

  [[nodiscard]] const CacheGeometry& geometry() const noexcept { return geo_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_.reset(); }

  // ------------------------------------------------------------ local path
  // The local lookup / fill pair is the simulator's innermost loop (every
  // L1 probe of every core lands here), so both are defined inline below —
  // the scans fold into the caller without a cross-TU call.

  /// Looks up `addr` among local (CC==0) lines of its home set.  On a hit
  /// the line is touched and, for writes, marked dirty.
  AccessResult access_local(Addr addr, bool is_write) {
    const SetIndex s = geo_.set_of(addr);
    const std::uint64_t tag = geo_.tag_of(addr);
    const CacheSet set = set_view(s);
    const WayIndex w = set.find_local(tag);
    if (w == kInvalidWay) {
      ++stats_.misses();
      return {false, s, kInvalidWay};
    }
    ++stats_.hits();
    set.touch(w);
    if (is_write) set.mark_dirty(w);
    return {true, s, w};
  }

  /// Probe without any state change (no recency update, no counters).
  [[nodiscard]] AccessResult probe_local(Addr addr) const {
    const SetIndex s = geo_.set_of(addr);
    const WayIndex w = set_view(s).find_local(geo_.tag_of(addr));
    return {w != kInvalidWay, s, w};
  }

  /// Marks a known-resident local line dirty (L1 write-back landed).
  void mark_dirty(SetIndex set, WayIndex way) {
    SNUG_REQUIRE(set < geo_.num_sets());
    set_view(set).mark_dirty(way);
  }

  /// Installs a local line for `addr` after miss service and returns the
  /// displaced line.  The victim choice prefers invalid ways.
  Eviction fill_local(Addr addr, bool dirty, CoreId owner);

  // ------------------------------------------------------ cooperative path

  /// Installs a cooperative line for home address `addr` spilled by
  /// `owner`.  With flipped==true the line is placed in the buddy set and
  /// its f bit is set (paper Section 3.2).  The guest displaces the
  /// set's LRU line and is inserted at MRU, as the paper does.
  Eviction insert_cc(Addr addr, CoreId owner, bool flipped);

  /// Searches both legal placements (home set with f==0, buddy set with
  /// f==1) for a cooperative copy of `addr`.
  [[nodiscard]] CcLocation lookup_cc(Addr addr) const {
    const SetIndex home = geo_.set_of(addr);
    const std::uint64_t tag = geo_.tag_of(addr);
    // Placement 1: home set, f == 0.
    WayIndex w = set_view(home).find_cc(tag, /*flipped=*/false);
    if (w != kInvalidWay) return {true, home, w, false};
    // Placement 2: buddy set, f == 1.
    const SetIndex buddy = geo_.buddy_set(home);
    w = set_view(buddy).find_cc(tag, /*flipped=*/true);
    if (w != kInvalidWay) return {true, buddy, w, true};
    return {};
  }

  /// Forwards a cooperative block to its owner: touches stats and
  /// invalidates the copy (paper Section 3.3, restriction 2).
  void forward_and_invalidate(const CcLocation& loc);

  /// Invalidates a specific line.
  void invalidate(SetIndex set, WayIndex way);

  // ------------------------------------------------------------ inspection

  [[nodiscard]] std::uint32_t num_sets() const noexcept {
    return geo_.num_sets();
  }

  /// A view of set `s` (shallow-const: views obtained from a const cache
  /// still alias mutable storage, like std::span).
  [[nodiscard]] CacheSet set(SetIndex s) const;

  /// Total valid cooperative lines (invariant checks).
  [[nodiscard]] std::uint64_t total_cc_lines() const noexcept;

  // ------------------------------------------------------------ warm state

  /// Byte size of the serializable arena image (num_sets x set stride).
  [[nodiscard]] std::size_t state_bytes() const noexcept {
    return std::size_t{geo_.num_sets()} * set_stride_;
  }

  /// Copies the whole AoSoA arena (tags, occupancy, guest counts, meta,
  /// LRU ranks) out of / back into the cache, bit-exactly.  The image is
  /// only meaningful for a cache of identical geometry — the warm-state
  /// bank guards this with its fingerprint (sim/warm_state.hpp).
  void export_state(std::byte* out) const noexcept;
  void import_state(const std::byte* in) noexcept;

 private:
  /// Byte offsets of the runs inside one set block (tags sit at 0; the
  /// occupancy word follows the tag run so both stay 8-byte aligned).
  [[nodiscard]] std::size_t occ_offset() const noexcept {
    return std::size_t{assoc_} * sizeof(std::uint64_t);
  }
  [[nodiscard]] std::size_t cc_offset() const noexcept {
    return occ_offset() + sizeof(std::uint64_t);
  }
  [[nodiscard]] std::size_t meta_offset() const noexcept {
    return cc_offset() + sizeof(std::uint16_t);
  }
  [[nodiscard]] std::size_t repl_offset() const noexcept {
    return meta_offset() + std::size_t{assoc_} * sizeof(LineMeta);
  }

  /// Unchecked view construction for the hot paths: one base pointer,
  /// five constant offsets — every run of the set shares the block.
  [[nodiscard]] CacheSet set_view(SetIndex s) const noexcept {
    std::byte* block =
        const_cast<std::byte*>(arena_) + std::size_t{s} * set_stride_;
    return {reinterpret_cast<std::uint64_t*>(block),
            reinterpret_cast<LineMeta*>(block + meta_offset()),
            reinterpret_cast<std::uint8_t*>(block + repl_offset()),
            reinterpret_cast<std::uint64_t*>(block + occ_offset()),
            reinterpret_cast<std::uint16_t*>(block + cc_offset()),
            assoc_};
  }

  std::string name_;
  CacheGeometry geo_;
  std::uint32_t assoc_;
  std::vector<std::byte> arena_storage_;  ///< blocks + alignment slack
  std::byte* arena_ = nullptr;            ///< 64-aligned first set block
  std::size_t set_stride_ = 0;            ///< block bytes, 64-multiple
  CacheStats stats_;
};

}  // namespace snug::cache
