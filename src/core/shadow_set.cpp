#include "core/shadow_set.hpp"

#include <bit>
#include <cstring>

#include "common/bitutil.hpp"
#include "common/require.hpp"

namespace snug::core {

ShadowSetArray::ShadowSetArray(std::uint32_t num_sets, std::uint32_t assoc)
    : num_sets_(num_sets), assoc_(assoc) {
  SNUG_REQUIRE_MSG(num_sets >= 1, "shadow array needs at least one set");
  SNUG_REQUIRE_MSG(assoc >= 1 && assoc <= 64,
                   "shadow sets support 1..64 ways (got %u)", assoc);
  valid_offset_ = std::size_t{assoc} * sizeof(std::uint64_t);
  rank_offset_ = valid_offset_ + sizeof(std::uint64_t);
  stride_ = (rank_offset_ + assoc + 63) & ~std::size_t{63};
  arena_storage_.assign(std::size_t{num_sets} * stride_ + 63,
                        std::byte{0});
  arena_ = reinterpret_cast<std::byte*>(
      (reinterpret_cast<std::uintptr_t>(arena_storage_.data()) + 63) &
      ~std::uintptr_t{63});
  for (std::uint32_t s = 0; s < num_sets; ++s) {
    cache::repl::init(ranks(s), assoc_);
  }
}

WayIndex ShadowSetArray::find(SetIndex set, std::uint64_t tag) const noexcept {
  SNUG_REQUIRE(set < num_sets_);
  const std::uint64_t* t = tags(set);
  std::uint64_t m = *valid_word(set);
  while (m != 0) {
    const auto w = static_cast<WayIndex>(std::countr_zero(m));
    if (t[w] == tag) return w;
    m &= m - 1;
  }
  return kInvalidWay;
}

void ShadowSetArray::insert(SetIndex set, std::uint64_t tag) {
  std::uint8_t* rank = ranks(set);
  WayIndex w = find(set, tag);
  if (w != kInvalidWay) {
    cache::repl::rank_touch(rank, assoc_, w);  // refresh
    return;
  }
  // Prefer an invalid way; otherwise replace the shadow LRU entry.
  std::uint64_t* valid = valid_word(set);
  const std::uint64_t empty = ~*valid & low_mask(assoc_);
  w = empty != 0 ? static_cast<WayIndex>(std::countr_zero(empty))
                 : cache::repl::rank_victim(rank, assoc_);
  tags(set)[w] = tag;
  *valid |= std::uint64_t{1} << w;
  cache::repl::rank_touch(rank, assoc_, w);
}

bool ShadowSetArray::probe_and_remove(SetIndex set, std::uint64_t tag) {
  const WayIndex w = find(set, tag);
  if (w == kInvalidWay) return false;
  *valid_word(set) &= ~(std::uint64_t{1} << w);
  return true;
}

bool ShadowSetArray::contains(SetIndex set,
                              std::uint64_t tag) const noexcept {
  return find(set, tag) != kInvalidWay;
}

void ShadowSetArray::remove(SetIndex set, std::uint64_t tag) {
  const WayIndex w = find(set, tag);
  if (w != kInvalidWay) *valid_word(set) &= ~(std::uint64_t{1} << w);
}

void ShadowSetArray::clear() {
  for (std::uint32_t s = 0; s < num_sets_; ++s) *valid_word(s) = 0;
}

std::uint32_t ShadowSetArray::valid_count(SetIndex set) const noexcept {
  SNUG_REQUIRE(set < num_sets_);
  return static_cast<std::uint32_t>(std::popcount(*valid_word(set)));
}

void ShadowSetArray::export_state(std::byte* out) const noexcept {
  std::memcpy(out, arena_, state_bytes());
}

void ShadowSetArray::import_state(const std::byte* in) noexcept {
  std::memcpy(arena_, in, state_bytes());
}

}  // namespace snug::core
