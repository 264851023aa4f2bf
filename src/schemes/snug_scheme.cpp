#include "schemes/snug_scheme.hpp"

namespace snug::schemes {

SnugScheme::SnugScheme(const PrivateConfig& cfg, const SnugConfig& snug,
                       bus::SnoopBus& bus, dram::DramModel& dram)
    : ClassifyingSchemeBase("SNUG", cfg, snug.monitor,
                            core::Granularity::kSet, snug.epochs,
                            snug.flip_enabled, bus, dram),
      snug_(snug) {}

cache::CcLocation SnugScheme::find_guest(CoreId peer, Addr addr) const {
  const cache::SetAssocCache& l2 = slice(peer);
  const auto& geo = l2.geometry();
  const SetIndex home = geo.set_of(addr);
  const std::uint64_t tag = geo.tag_of(addr);
  const core::RetrieveSearch search = core::retrieve_search(gt(peer), home);
  if (search.same) {
    const WayIndex w = l2.set(home).find_cc(tag, false);
    if (w != kInvalidWay) return {true, home, w, false};
  }
  if (search.flipped && snug_.flip_enabled) {
    const SetIndex buddy = geo.buddy_set(home);
    const WayIndex w = l2.set(buddy).find_cc(tag, true);
    if (w != kInvalidWay) return {true, buddy, w, true};
  }
  return {};
}

void SnugScheme::regrouped() {
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    cache::SetAssocCache& l2 = slice(c);
    for (SetIndex s = 0; s < gt(c).num_sets(); ++s) {
      if (gt(c).giver(s)) continue;
      const cache::CacheSet set = l2.set(s);
      for (WayIndex w = 0; w < set.assoc(); ++w) {
        if (set.valid_cc(w)) {
          l2.invalidate(s, w);
          ++stats_.cc_flushed();
        }
      }
    }
  }
}

std::uint64_t SnugScheme::cc_lines_in_taker_sets() const {
  std::uint64_t violations = 0;
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    const cache::SetAssocCache& l2 = slice(c);
    for (SetIndex s = 0; s < gt(c).num_sets(); ++s) {
      if (gt(c).giver(s)) continue;
      const cache::CacheSet set = l2.set(s);
      for (WayIndex w = 0; w < set.assoc(); ++w) {
        if (set.valid_cc(w)) ++violations;
      }
    }
  }
  return violations;
}

}  // namespace snug::schemes
