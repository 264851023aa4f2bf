// Extending the framework: implement your own cooperative-caching policy
// by subclassing PrivateSchemeBase — here, a "ring" policy that always
// spills clean victims to the next core, with no demand awareness at all
// (a deliberately naive strawman between L2P and CC).  It overrides only
// the spill decision, maybe_spill: the base class already retrieves a
// spilled block on a later miss, exactly as it does for CC.
//
//   $ ./custom_spill_policy
#include <cstdio>

#include "common/str.hpp"
#include "common/table.hpp"
#include "sim/figures.hpp"
#include "sim/system.hpp"

using namespace snug;

namespace {

/// Every clean victim goes to the neighbouring core's same-index set.
class RingSpillScheme final : public schemes::PrivateSchemeBase {
 public:
  RingSpillScheme(const schemes::PrivateConfig& cfg, bus::SnoopBus& bus,
                  dram::DramModel& dram)
      : PrivateSchemeBase("Ring", cfg, bus, dram) {}

 protected:
  void maybe_spill(CoreId c, Addr victim_addr, SetIndex /*set*/, Cycle now,
                   int chain_budget) override {
    const CoreId neighbour = (c + 1) % cfg_.num_cores;
    place_spill(c, neighbour, victim_addr, /*flipped=*/false, now,
                chain_budget);
  }
};

}  // namespace

int main() {
  const trace::WorkloadCombo combo{"custom-demo", 5,
                                   {"ammp", "parser", "gzip", "mesa"}};
  const sim::SystemConfig cfg = sim::paper_system_config();
  const sim::RunScale scale = sim::default_run_scale();

  std::printf("Custom scheme demo: naive ring spilling vs L2P and SNUG\n\n");

  // The CmpSystem factory path covers the built-in schemes; a custom
  // scheme plugs into the same substrate objects directly.
  TextTable t({"scheme", "throughput (sum IPC)", "spills", "remote hits"});
  std::vector<double> base;

  const auto report = [&](const char* name, sim::CmpSystem& system) {
    system.run(scale.warmup_cycles);
    system.begin_measurement();
    system.run(scale.measure_cycles);
    const auto ipc = system.measured_ipc();
    if (base.empty()) base = ipc;
    double sum = 0.0;
    for (const double v : ipc) sum += v;
    const auto& st = system.scheme().stats();
    t.add_row({name, strf("%.3f", sum),
               strf("%llu", static_cast<unsigned long long>(st.spills())),
               strf("%llu",
                    static_cast<unsigned long long>(st.remote_hits()))});
  };

  {
    sim::CmpSystem sys(cfg, {schemes::SchemeKind::kL2P, 0}, combo, scale);
    report("L2P", sys);
  }
  {
    // A custom scheme: build the substrate pieces the factory would build
    // and drive the scheme directly through L2Scheme::access — the call
    // CmpSystem makes on every L1 miss — rather than through a full
    // machine (simplest: use CC's slot in the factory for the baseline
    // and construct the ring scheme standalone).
    bus::SnoopBus bus(cfg.bus);
    dram::DramModel dram(cfg.dram);
    RingSpillScheme ring(cfg.scheme_ctx.priv, bus, dram);
    // Exercise the scheme directly with a synthetic access pattern to
    // show the mechanism (for full-system runs, add a SchemeKind).
    const auto& geo = cfg.scheme_ctx.priv.l2;
    for (std::uint64_t uid = 0; uid < 32; ++uid) {
      ring.access(0, geo.addr_of(uid, 7), false, uid * 1000);
    }
    std::printf("standalone ring scheme after 32 accesses to one set: "
                "%llu spills, %u guests at neighbour\n",
                static_cast<unsigned long long>(ring.stats().spills()),
                ring.slice(1).set(7).cc_count());
  }
  {
    sim::CmpSystem sys(cfg, {schemes::SchemeKind::kSNUG, 0}, combo, scale);
    report("SNUG", sys);
  }
  std::printf("\n%s", t.render().c_str());
  std::printf("\nSNUG spills selectively (taker sets into giver sets); the "
              "ring spills blindly like eviction-driven CC.\n");
  return 0;
}
