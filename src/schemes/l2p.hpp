// L2P — the baseline: strictly private L2 slices, no capacity sharing.
// Misses go straight to DRAM without snooping the peers; clean victims
// are dropped.
#pragma once

#include "schemes/private_base.hpp"

namespace snug::schemes {

class L2P final : public PrivateSchemeBase {
 public:
  L2P(const PrivateConfig& cfg, bus::SnoopBus& bus, dram::DramModel& dram)
      : PrivateSchemeBase("L2P", cfg, bus, dram) {}

 protected:
  [[nodiscard]] bool retrieves() const noexcept override { return false; }
};

}  // namespace snug::schemes
