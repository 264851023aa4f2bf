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
// hits > 1/p  =>  taker/spiller).  This keeps the sensing identical
// between DSR and SNUG, so any performance difference between the two
// schemes is attributable purely to the *granularity* of the
// classification and the flipping-based grouping — exactly the
// comparison the paper makes.
#pragma once

#include <memory>
#include <vector>

#include "core/controller.hpp"
#include "core/monitor.hpp"
#include "core/saturating_counter.hpp"
#include "core/shadow_set.hpp"
#include "schemes/private_base.hpp"

namespace snug::schemes {

struct DsrConfig {
  std::uint32_t k_bits = 8;  ///< app-level counter width (events/epoch big)
  std::uint32_t p = 8;       ///< same 1/p threshold as SNUG (Table 2)
  core::EpochConfig epochs;  ///< synchronised with SNUG's epochs
};

class DsrScheme final : public PrivateSchemeBase {
 public:
  DsrScheme(const PrivateConfig& cfg, const DsrConfig& dsr,
            bus::SnoopBus& bus, dram::DramModel& dram);

  enum class Role : std::uint8_t { kSpiller, kReceiver };

  void tick(Cycle now) override { controller_->tick(now); }
  [[nodiscard]] bool has_periodic_work() const noexcept override {
    return true;
  }
  [[nodiscard]] Cycle next_tick_cycle() const noexcept override {
    return controller_->next_boundary();
  }

  /// The cache-wide role: every set of a cache shares it.
  [[nodiscard]] Role role_of(CoreId c) const;
  [[nodiscard]] core::Stage stage() const noexcept {
    return controller_->stage();
  }

  /// Base warm state + the classification machinery (shadow arrays,
  /// app counters, dividers, roles, epoch controller).
  void save_warm_state(StateWriter& w) const override;
  void load_warm_state(StateReader& r) override;

 protected:
  RemoteResult probe_peers(CoreId c, Addr addr,
                           Cycle request_done) override;
  void maybe_spill(CoreId c, Addr victim_addr, SetIndex set, Cycle now,
                   int chain_budget) override;
  void on_local_hit(CoreId c, SetIndex set) override;
  void on_local_miss(CoreId c, SetIndex set, std::uint64_t tag) override;
  void on_local_eviction(CoreId c, SetIndex set,
                         std::uint64_t tag) override;

 private:
  void harvest_roles();

  std::vector<core::ShadowSetArray> shadows_;  // [cache](set)
  std::vector<core::SaturatingCounter> app_counter_;
  std::vector<core::ModPCounter> divider_;
  std::vector<Role> roles_;
  std::unique_ptr<core::SnugController> controller_;
  bool counting_ = true;
};

}  // namespace snug::schemes
