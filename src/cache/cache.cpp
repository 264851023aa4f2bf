#include "cache/cache.hpp"

#include <cstring>

#include "common/require.hpp"

namespace snug::cache {

SetAssocCache::SetAssocCache(std::string name, const CacheGeometry& geo)
    : name_(std::move(name)), geo_(geo), assoc_(geo.associativity()) {
  SNUG_REQUIRE_MSG(assoc_ >= 1 && assoc_ <= kMaxReplAssoc,
                   "cache '%s': associativity %u outside 1..%u",
                   name_.c_str(), assoc_, kMaxReplAssoc);
  // Set-blocked layout: one 64-aligned fixed-stride block per set (see
  // cache.hpp).  The stride rounds the packed runs up to whole lines.
  const std::size_t packed =
      repl_offset() + std::size_t{assoc_} * sizeof(std::uint8_t);
  set_stride_ = (packed + 63) & ~std::size_t{63};
  arena_storage_.assign(
      std::size_t{geo_.num_sets()} * set_stride_ + 63, std::byte{0});
  arena_ = reinterpret_cast<std::byte*>(
      (reinterpret_cast<std::uintptr_t>(arena_storage_.data()) + 63) &
      ~std::uintptr_t{63});
  for (std::uint32_t s = 0; s < geo_.num_sets(); ++s) {
    std::byte* block = arena_ + std::size_t{s} * set_stride_;
    auto* tags = reinterpret_cast<std::uint64_t*>(block);
    auto* meta = reinterpret_cast<LineMeta*>(block + meta_offset());
    for (std::uint32_t w = 0; w < assoc_; ++w) {
      tags[w] = 0;
      meta[w] = kMetaInvalid;
    }
    repl::init(reinterpret_cast<std::uint8_t*>(block + repl_offset()),
               assoc_);
  }
}

Eviction SetAssocCache::fill_local(Addr addr, bool dirty, CoreId owner) {
  const SetIndex s = geo_.set_of(addr);
  const CacheSet set = set_view(s);
  SNUG_REQUIRE(set.find_local(geo_.tag_of(addr)) == kInvalidWay);
  const WayIndex victim = set.choose_victim();
  CacheLine incoming;
  incoming.tag = geo_.tag_of(addr);
  incoming.valid = true;
  incoming.dirty = dirty;
  incoming.cc = false;
  incoming.flipped = false;
  incoming.owner = owner;
  const CacheLine displaced = set.fill(victim, incoming);
  ++stats_.fills();
  if (displaced.valid) {
    if (displaced.cc) {
      ++stats_.evict_cc();
    } else if (displaced.dirty) {
      ++stats_.evict_dirty();
    } else {
      ++stats_.evict_clean();
    }
  }
  return {displaced, s};
}

Eviction SetAssocCache::insert_cc(Addr addr, CoreId owner, bool flipped) {
  const SetIndex home = geo_.set_of(addr);
  const SetIndex target = flipped ? geo_.buddy_set(home) : home;
  const CacheSet set = set_view(target);
  // Only clean blocks are spilled (Section 3.3, restriction 1), and a block
  // is never spilled while the owner still holds it, so no duplicate can
  // legally exist here.
  SNUG_REQUIRE(set.find_cc(geo_.tag_of(addr), flipped) == kInvalidWay);
  // Plain LRU victim, MRU insertion: guests claim stale host lines
  // progressively and age out naturally.  Inserting guests at LRU and
  // Chang & Sohi's replica-first victim (the coldest guest before any
  // host line) both measured as fig9 losses (ROADMAP, negative results).
  const WayIndex victim = set.choose_victim();
  CacheLine incoming;
  incoming.tag = geo_.tag_of(addr);
  incoming.valid = true;
  incoming.dirty = false;
  incoming.cc = true;
  incoming.flipped = flipped;
  incoming.owner = owner;
  const CacheLine displaced = set.fill(victim, incoming);
  ++stats_.cc_inserted();
  if (displaced.valid) {
    if (displaced.cc) {
      ++stats_.evict_cc();
    } else if (displaced.dirty) {
      ++stats_.evict_dirty();
    } else {
      ++stats_.evict_clean();
    }
  }
  return {displaced, target};
}

void SetAssocCache::forward_and_invalidate(const CcLocation& loc) {
  SNUG_REQUIRE(loc.found);
  const CacheSet set = set_view(loc.set);
  SNUG_REQUIRE(set.valid_cc(loc.way));
  set.invalidate(loc.way);
  ++stats_.cc_forwarded();
  ++stats_.cc_invalidated();
}

void SetAssocCache::invalidate(SetIndex s, WayIndex way) {
  SNUG_REQUIRE(s < geo_.num_sets());
  const CacheSet set = set_view(s);
  if (set.valid_cc(way)) ++stats_.cc_invalidated();
  set.invalidate(way);
}

CacheSet SetAssocCache::set(SetIndex s) const {
  SNUG_REQUIRE(s < geo_.num_sets());
  return set_view(s);
}

std::uint64_t SetAssocCache::total_cc_lines() const noexcept {
  std::uint64_t n = 0;
  for (SetIndex s = 0; s < geo_.num_sets(); ++s) {
    n += set_view(s).cc_count();
  }
  return n;
}

void SetAssocCache::export_state(std::byte* out) const noexcept {
  std::memcpy(out, arena_, state_bytes());
}

void SetAssocCache::import_state(const std::byte* in) noexcept {
  std::memcpy(arena_, in, state_bytes());
}

}  // namespace snug::cache
