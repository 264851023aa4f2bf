// CC(p) — Chang & Sohi cooperative caching with a spill probability.
//
// Eviction-driven: every clean local victim is spilled to a *random* peer
// with probability p, landing in the peer's same-index set (no flipping,
// no demand awareness).  One-chance forwarding: a cooperative line that is
// displaced again is dropped.  Misses broadcast a retrieve; a peer holding
// the cooperative copy forwards it and invalidates (30-cycle remote).
// The paper evaluates p in {0, 25, 50, 75, 100}% and reports the best as
// CC(Best).
#pragma once

#include "schemes/private_base.hpp"

namespace snug::schemes {

class CcScheme final : public PrivateSchemeBase {
 public:
  CcScheme(const PrivateConfig& cfg, double spill_prob, bus::SnoopBus& bus,
           dram::DramModel& dram);

  [[nodiscard]] double spill_prob() const noexcept { return spill_prob_; }

 protected:
  void maybe_spill(CoreId c, Addr victim_addr, SetIndex set, Cycle now,
                   int chain_budget) override;

 private:
  double spill_prob_;
};

}  // namespace snug::schemes
