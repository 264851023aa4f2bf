// The per-set capacity-demand counter (paper Figures 6-7).
//
// A k-bit saturating counter is initialised to 2^(k-1) - 1 (all bits below
// the MSB set).  Every hit on the set's *shadow* tags increments it; every
// p-th hit on the set (real or shadow, counted by a small mod-p divider)
// decrements it.  The MSB then answers the question "would doubling this
// set's capacity raise its hit rate by at least 1/p?":
//
//   sigma = shadow_hits / (real_hits + shadow_hits) > 1/p
//     <=>  shadow_hits - (real_hits + shadow_hits)/p > 0
//
// which is exactly the counter's drift.  MSB == 1 -> taker, else giver.
#pragma once

#include <cstdint>

#include "common/require.hpp"

namespace snug::core {

class SaturatingCounter {
 public:
  /// `taker_biased` selects the reset point: the paper initialises to
  /// 2^(k-1) - 1 (MSB clear — sets default to giver), which makes sets
  /// with too few events in a sampling period default to *giver* and
  /// attract the whole CMP's spill traffic.  The biased variant starts at
  /// 2^(k-1) (MSB set): a set must produce hit evidence to become a
  /// giver, which is the safe default.  Both are available; the SNUG
  /// scheme uses the biased one (see README.md, "Modelling
  /// substitutions").
  explicit SaturatingCounter(std::uint32_t k_bits = 4,
                             bool taker_biased = false)
      : k_(k_bits), taker_biased_(taker_biased) {
    SNUG_REQUIRE(k_bits >= 2 && k_bits <= 16);
    reset();
  }

  void increment() noexcept {
    const std::uint32_t max = (1U << k_) - 1;
    if (value_ < max) ++value_;
  }

  void decrement() noexcept {
    if (value_ > 0) --value_;
  }

  /// MSB set -> the set is a taker (paper Section 3.1.3).
  [[nodiscard]] bool msb() const noexcept {
    return value_ >= (1U << (k_ - 1));
  }

  [[nodiscard]] std::uint32_t value() const noexcept { return value_; }

  /// Warm-state restore; the value must fit the counter's k bits.
  void set_value(std::uint32_t v) noexcept {
    SNUG_REQUIRE(v <= (1U << k_) - 1);
    value_ = v;
  }

  /// Back to the starting point: 2^(k-1) - 1 (paper) or 2^(k-1) (biased).
  void reset() noexcept {
    value_ = (1U << (k_ - 1)) - (taker_biased_ ? 0 : 1);
  }

 private:
  std::uint32_t k_;
  bool taker_biased_;
  std::uint32_t value_ = 0;
};

/// The mod-p hit divider (the "log p"-bit counter of paper Table 2).
class ModPCounter {
 public:
  explicit ModPCounter(std::uint32_t p = 8) : p_(p) {
    SNUG_REQUIRE(p >= 2);
  }

  /// Counts one hit; returns true on every p-th call.
  bool tick() noexcept {
    if (++count_ >= p_) {
      count_ = 0;
      return true;
    }
    return false;
  }

  void reset() noexcept { count_ = 0; }
  [[nodiscard]] std::uint32_t p() const noexcept { return p_; }
  [[nodiscard]] std::uint32_t count() const noexcept { return count_; }

  /// Warm-state restore; the phase must be inside the divider period.
  void set_count(std::uint32_t c) noexcept {
    SNUG_REQUIRE(c < p_);
    count_ = c;
  }

 private:
  std::uint32_t p_;
  std::uint32_t count_ = 0;
};

}  // namespace snug::core
