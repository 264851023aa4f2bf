#include "core/monitor.hpp"

#include "common/require.hpp"

namespace snug::core {

CapacityMonitor::CapacityMonitor(const MonitorConfig& cfg)
    : cfg_(cfg), shadows_(cfg.num_sets, cfg.assoc) {
  SNUG_REQUIRE_MSG(cfg.num_sets >= 2, "monitor needs at least two sets");
  counters_.reserve(cfg.num_sets);
  dividers_.reserve(cfg.num_sets);
  for (std::uint32_t s = 0; s < cfg.num_sets; ++s) {
    counters_.emplace_back(cfg.k_bits, cfg.taker_biased);
    dividers_.emplace_back(cfg.p);
  }
}

void CapacityMonitor::on_local_hit(SetIndex set) {
  SNUG_REQUIRE(set < cfg_.num_sets);
  if (!counting_) return;
  ++stats_.real_hits();
  if (dividers_[set].tick()) counters_[set].decrement();
}

bool CapacityMonitor::on_local_miss(SetIndex set, std::uint64_t tag) {
  SNUG_REQUIRE(set < cfg_.num_sets);
  // Shadow upkeep must run even when not counting so exclusivity with the
  // real set is preserved across stage boundaries.
  const bool shadow_hit = shadows_.probe_and_remove(set, tag);
  if (!counting_) return shadow_hit;
  if (shadow_hit) {
    ++stats_.shadow_hits();
    counters_[set].increment();
    if (dividers_[set].tick()) counters_[set].decrement();
  }
  return shadow_hit;
}

void CapacityMonitor::on_local_eviction(SetIndex set, std::uint64_t tag) {
  SNUG_REQUIRE(set < cfg_.num_sets);
  shadows_.insert(set, tag);
  ++stats_.shadow_inserts();
}

void CapacityMonitor::harvest(GtVector& out) {
  SNUG_REQUIRE(out.num_sets() == cfg_.num_sets);
  for (SetIndex s = 0; s < cfg_.num_sets; ++s) {
    out.set_taker(s, counters_[s].msb());
    counters_[s].reset();
    dividers_[s].reset();
  }
}

const SaturatingCounter& CapacityMonitor::counter(SetIndex set) const {
  SNUG_REQUIRE(set < cfg_.num_sets);
  return counters_[set];
}

void CapacityMonitor::reset() {
  shadows_.clear();
  for (auto& c : counters_) c.reset();
  for (auto& d : dividers_) d.reset();
  stats_.reset();
}

void CapacityMonitor::save_state(StateWriter& w) const {
  std::vector<std::byte> shadow(shadows_.state_bytes());
  shadows_.export_state(shadow.data());
  w.vec(shadow);
  std::vector<std::uint32_t> values(cfg_.num_sets);
  for (SetIndex s = 0; s < cfg_.num_sets; ++s) {
    values[s] = counters_[s].value();
  }
  w.vec(values);
  for (SetIndex s = 0; s < cfg_.num_sets; ++s) {
    values[s] = dividers_[s].count();
  }
  w.vec(values);
  w.pod(static_cast<std::uint8_t>(counting_));
}

void CapacityMonitor::load_state(StateReader& r) {
  const auto shadow = r.vec<std::byte>();
  SNUG_ENSURE(shadow.size() == shadows_.state_bytes());
  shadows_.import_state(shadow.data());
  auto values = r.vec<std::uint32_t>();
  SNUG_ENSURE(values.size() == cfg_.num_sets);
  for (SetIndex s = 0; s < cfg_.num_sets; ++s) {
    counters_[s].set_value(values[s]);
  }
  values = r.vec<std::uint32_t>();
  SNUG_ENSURE(values.size() == cfg_.num_sets);
  for (SetIndex s = 0; s < cfg_.num_sets; ++s) {
    dividers_[s].set_count(values[s]);
  }
  counting_ = r.pod<std::uint8_t>() != 0;
}

}  // namespace snug::core
