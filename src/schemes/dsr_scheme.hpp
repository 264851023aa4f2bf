// DSR — Dynamic Spill-Receive (Qureshi, HPCA 2009), the paper's
// state-of-the-art baseline: each private cache as a whole is classified
// as a *spiller* (taker application: benefits from extra capacity) or a
// *receiver* (giver application: can host peers' victims), and spilling
// only flows from spillers to receivers, always into the same-index set.
//
// Classification substitution (see README.md, "Modelling
// substitutions"): Qureshi learns the roles with set dueling; we learn
// them with the same shadow-tag capacity monitor SNUG uses, aggregated
// to ONE saturating counter per cache (sigma_app = shadow hits / all
// hits > 1/p  =>  taker/spiller).  DSR is the classifying layer
// (classifying_base.hpp) at Granularity::kCache, so it shares SNUG's
// sensing, epochs and spill loop, and any performance difference
// between the two schemes is attributable purely to the *granularity*
// of the classification, the flipping-based grouping and SNUG's
// giver-restricted retrieve — exactly the comparison the paper makes.
#pragma once

#include "schemes/classifying_base.hpp"

namespace snug::schemes {

struct DsrConfig {
  std::uint32_t k_bits = 8;  ///< app-level counter width (events/epoch big)
  std::uint32_t p = 8;       ///< same 1/p threshold as SNUG (Table 2)
  core::EpochConfig epochs;  ///< synchronised with SNUG's epochs
};

class DsrScheme final : public ClassifyingSchemeBase {
 public:
  DsrScheme(const PrivateConfig& cfg, const DsrConfig& dsr,
            bus::SnoopBus& bus, dram::DramModel& dram);

  enum class Role : std::uint8_t { kSpiller, kReceiver };

  /// The cache-wide role: one counter classifies every set alike.
  [[nodiscard]] Role role_of(CoreId c) const {
    return gt(c).taker(0) ? Role::kSpiller : Role::kReceiver;
  }
};

}  // namespace snug::schemes
