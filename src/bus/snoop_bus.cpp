#include "bus/snoop_bus.hpp"

#include "common/bitutil.hpp"
#include "common/require.hpp"

namespace snug::bus {

SnoopBus::SnoopBus(const BusConfig& cfg) : cfg_(cfg) {
  SNUG_ENSURE(cfg.width_bytes >= 1);
  SNUG_ENSURE(cfg.speed_ratio >= 1);
  SNUG_ENSURE(cfg.block_bytes >= cfg.width_bytes);
  static_assert((kRingCapacity & (kRingCapacity - 1)) == 0,
                "ring indexing masks against kRingCapacity - 1");
  // Per-op durations are fixed by the config; precompute them so the
  // transact path is a table load instead of a switch + ceil_div.
  const std::uint64_t data_beats =
      ceil_div(cfg.block_bytes, cfg.width_bytes);
  duration_[static_cast<std::size_t>(BusOp::kRequest)] =
      (cfg.arb_cycles + 1) * cfg.speed_ratio;
  duration_[static_cast<std::size_t>(BusOp::kDataBlock)] =
      (cfg.arb_cycles + data_beats) * cfg.speed_ratio;
  duration_[static_cast<std::size_t>(BusOp::kSpill)] =
      (cfg.arb_cycles + 1 + data_beats) * cfg.speed_ratio;
}

BusGrant SnoopBus::transact(Cycle now, BusOp op) {
  ++stats_.op_count(op);
  const Cycle dur = duration(op);

  // Retire tenures behind the horizon.  Ends are ordered (tenures are
  // disjoint and start-ordered), so this is a pure head pop.
  if (now > kRetireSlack && now - kRetireSlack > horizon_) {
    horizon_ = now - kRetireSlack;
  }
  while (size_ != 0 && at(0).end < horizon_) pop_front();
  if (size_ == kRingCapacity) {
    // Ring pressure: additionally retire tenures that ended at or before
    // `now` — they can neither host nor push a grant at/after `now`.
    // They could still push a *later* transaction issued with a smaller
    // timestamp, so their range is sealed behind the conflict floor.
    while (size_ != 0 && at(0).end <= now) {
      if (at(0).end > floor_) floor_ = at(0).end;
      pop_front();
    }
  }

  // No grant may start before the conflict floor: it covers every
  // tenure the bounded ring was forced to stop tracking.
  Cycle t = now > floor_ ? now : floor_;
  if (size_ == 0 || now >= at(size_ - 1).end) {
    // O(1) fast path: the bus holds no booking that ends after `now`, so
    // first-fit degenerates to an immediate grant appended at the tail.
    // (Any existing tenure iv has iv.end <= now, hence iv.start < t+dur
    // and iv.end <= t: the scan below would neither break nor push t.
    // The ring cannot be full here: full + all-ends-<=-now was emptied
    // by the pressure retirement above.)
  } else {
    // First-fit: earliest gap at/after `now` (and the floor) that holds
    // `dur` cycles.  Tenures ending at or before `t` can neither host
    // the grant (they start before t + dur) nor push it, and ends are
    // ordered: binary-search past them instead of walking the whole
    // kRetireSlack window from the head.
    std::size_t insert_pos = 0;
    for (std::size_t n = size_; n > 0;) {
      const std::size_t half = n / 2;
      if (at(insert_pos + half).end <= t) {
        insert_pos += half + 1;
        n -= half + 1;
      } else {
        n = half;
      }
    }
    for (; insert_pos < size_; ++insert_pos) {
      const Tenure& iv = at(insert_pos);
      if (t + dur <= iv.start) break;  // fits entirely before this tenure
      if (iv.end > t) t = iv.end;      // pushed past this tenure
    }
    if (size_ == kRingCapacity) {
      // Ring full with live bookings.  Drop to the bounded fallback:
      // grant after the last booked tenure (at worst later than
      // unbounded first-fit would allow) and retire the head booking to
      // make room — sealing its range behind the conflict floor so no
      // later grant can overlap the untracked tenure.
      ++stats_.ring_full_fallbacks();
      if (at(size_ - 1).end > t) t = at(size_ - 1).end;
      if (at(0).end > floor_) floor_ = at(0).end;
      pop_front();
      insert_pos = size_;
    } else if (insert_pos < size_) {
      // Mid-ring gap: shift the later tenures up one slot.  Bounded by
      // the ring and rare — only transactions issued behind already
      // booked future tenures (e.g. a request racing a DRAM return)
      // land here, and they land near the tail.
      for (std::size_t i = size_; i > insert_pos; --i) {
        at(i) = at(i - 1);
      }
    }
    ++size_;
    at(insert_pos) = Tenure{t, t + dur};
    stats_.wait_core_cycles() += t - now;
    stats_.busy_core_cycles() += dur;
    return {t, t + dur};
  }

  at(size_) = Tenure{t, t + dur};
  ++size_;
  stats_.wait_core_cycles() += t - now;
  stats_.busy_core_cycles() += dur;
  return {t, t + dur};
}

double SnoopBus::utilisation(Cycle horizon) const noexcept {
  if (horizon == 0) return 0.0;
  return static_cast<double>(stats_.busy_core_cycles()) /
         static_cast<double>(horizon);
}

}  // namespace snug::bus
