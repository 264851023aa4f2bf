#include "schemes/cc_scheme.hpp"

#include "common/str.hpp"

namespace snug::schemes {

CcScheme::CcScheme(const PrivateConfig& cfg, double spill_prob,
                   bus::SnoopBus& bus, dram::DramModel& dram)
    : PrivateSchemeBase(strf("CC(%d%%)", static_cast<int>(spill_prob * 100)),
                        cfg, bus, dram),
      spill_prob_(spill_prob) {}

void CcScheme::maybe_spill(CoreId c, Addr victim_addr, SetIndex /*set*/,
                           Cycle now, int chain_budget) {
  if (!rng_.chance(spill_prob_)) return;
  // Random recipient; plain CC has no notion of who can afford to host.
  const CoreId target = static_cast<CoreId>(
      (c + 1 + rng_.below(cfg_.num_cores - 1)) % cfg_.num_cores);
  place_spill(c, target, victim_addr, /*flipped=*/false, now,
              chain_budget);
}

}  // namespace snug::schemes
