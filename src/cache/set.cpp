#include "cache/set.hpp"

#include "common/require.hpp"

namespace snug::cache {

SoloSet::SoloSet(std::uint32_t assoc)
    : tags_(assoc, 0), meta_(assoc, kMetaInvalid), repl_(assoc, 0) {
  SNUG_REQUIRE_MSG(assoc >= 1, "a set needs at least one way");
  repl::init(repl_.data(), assoc);
}

}  // namespace snug::cache
