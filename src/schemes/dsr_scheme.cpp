#include "schemes/dsr_scheme.hpp"

namespace snug::schemes {

namespace {

core::MonitorConfig dsr_monitor(const PrivateConfig& cfg,
                                const DsrConfig& dsr) {
  core::MonitorConfig m;
  m.num_sets = cfg.l2.num_sets();
  m.assoc = cfg.l2.associativity();
  m.k_bits = dsr.k_bits;
  m.p = dsr.p;
  // Same taker-biased reset point as the SNUG monitor: an application
  // must show hit evidence before it is volunteered as a receiver.
  m.taker_biased = true;
  return m;
}

}  // namespace

// DSR never flips: with one counter per cache a buddy set is a taker
// exactly when the home set is.
DsrScheme::DsrScheme(const PrivateConfig& cfg, const DsrConfig& dsr,
                     bus::SnoopBus& bus, dram::DramModel& dram)
    : ClassifyingSchemeBase("DSR", cfg, dsr_monitor(cfg, dsr),
                            core::Granularity::kCache, dsr.epochs,
                            /*flip=*/false, bus, dram) {}

}  // namespace snug::schemes
