#include "core/monitor.hpp"

#include "common/require.hpp"

namespace snug::core {

CapacityMonitor::CapacityMonitor(const MonitorConfig& cfg,
                                 Granularity granularity)
    : cfg_(cfg),
      shadows_(cfg.num_sets, cfg.assoc),
      counter_mask_(granularity == Granularity::kSet ? ~SetIndex{0} : 0) {
  SNUG_REQUIRE_MSG(cfg.num_sets >= 2, "monitor needs at least two sets");
  const std::uint32_t n =
      granularity == Granularity::kSet ? cfg.num_sets : 1;
  counters_.reserve(n);
  dividers_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    counters_.emplace_back(cfg.k_bits, cfg.taker_biased);
    dividers_.emplace_back(cfg.p);
  }
}

void CapacityMonitor::on_local_hit(SetIndex set) {
  SNUG_REQUIRE(set < cfg_.num_sets);
  if (!counting_) return;
  ++stats_.real_hits();
  const SetIndex i = set & counter_mask_;
  if (dividers_[i].tick()) counters_[i].decrement();
}

bool CapacityMonitor::on_local_miss(SetIndex set, std::uint64_t tag) {
  SNUG_REQUIRE(set < cfg_.num_sets);
  // Shadow upkeep must run even when not counting so exclusivity with the
  // real set is preserved across stage boundaries.
  const bool shadow_hit = shadows_.probe_and_remove(set, tag);
  if (!counting_) return shadow_hit;
  if (shadow_hit) {
    ++stats_.shadow_hits();
    const SetIndex i = set & counter_mask_;
    counters_[i].increment();
    if (dividers_[i].tick()) counters_[i].decrement();
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
  // Every set reads its bit before any counter resets: with one counter
  // per cache, a reset inside this loop would hand the later sets the
  // reset value instead of the harvested one.
  for (SetIndex s = 0; s < cfg_.num_sets; ++s) {
    out.set_taker(s, counters_[s & counter_mask_].msb());
  }
  for (auto& c : counters_) c.reset();
  for (auto& d : dividers_) d.reset();
}

const SaturatingCounter& CapacityMonitor::counter(SetIndex set) const {
  SNUG_REQUIRE(set < cfg_.num_sets);
  return counters_[set & counter_mask_];
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
  std::vector<std::uint32_t> values(counters_.size());
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    values[i] = counters_[i].value();
  }
  w.vec(values);
  for (std::size_t i = 0; i < dividers_.size(); ++i) {
    values[i] = dividers_[i].count();
  }
  w.vec(values);
  w.pod(static_cast<std::uint8_t>(counting_));
}

void CapacityMonitor::load_state(StateReader& r) {
  const auto shadow = r.vec<std::byte>();
  SNUG_ENSURE(shadow.size() == shadows_.state_bytes());
  shadows_.import_state(shadow.data());
  auto values = r.vec<std::uint32_t>();
  SNUG_ENSURE(values.size() == counters_.size());
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    counters_[i].set_value(values[i]);
  }
  values = r.vec<std::uint32_t>();
  SNUG_ENSURE(values.size() == dividers_.size());
  for (std::size_t i = 0; i < dividers_.size(); ++i) {
    dividers_[i].set_count(values[i]);
  }
  counting_ = r.pod<std::uint8_t>() != 0;
}

}  // namespace snug::core
