#include "trace/synth_stream.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/bitutil.hpp"
#include "common/require.hpp"

namespace snug::trace {

namespace {

/// Smallest power of two >= the largest band demand of any phase: the
/// per-set slab stride.  Band demands are capped at 32 (== A_threshold,
/// see trace/profile.hpp), so slabs stay at most 32 uids wide.
std::uint32_t slab_stride(const BenchmarkProfile& profile) {
  std::uint32_t max_d = 1;
  for (const Phase& ph : profile.phases) {
    for (const DemandBand& b : ph.mix.bands) {
      max_d = std::max(max_d, b.hi);
    }
  }
  std::uint32_t stride = 1;
  while (stride < max_d) stride <<= 1;
  return stride;
}

/// Probability as a 2^64-scaled integer threshold for one-draw decisions.
std::uint64_t to_threshold(double p) noexcept {
  if (p <= 0.0) return 0;
  if (p >= 1.0) return ~std::uint64_t{0};
  return static_cast<std::uint64_t>(p * 0x1.0p64);
}

}  // namespace

SyntheticStream::SyntheticStream(const BenchmarkProfile& profile,
                                 const StreamConfig& cfg)
    : profile_(profile),
      cfg_(cfg),
      rng_(Rng::derive_seed("stream", cfg.stream_seed,
                            Rng::derive_seed(profile.name))),
      set_picker_(cfg.num_sets, profile.set_zipf_alpha) {
  SNUG_ENSURE(is_pow2(cfg.num_sets));
  SNUG_ENSURE(is_pow2(cfg.line_bytes));
  SNUG_ENSURE(!profile_.phases.empty());
  SNUG_ENSURE(cfg.phase_period_refs > 0);

  // Set-popularity permutation: identical for every instance of this
  // benchmark so that hot sets coincide in the stress tests.
  set_perm_.resize(cfg.num_sets);
  std::iota(set_perm_.begin(), set_perm_.end(), 0U);
  Rng perm_rng(Rng::derive_seed(profile_.name + "/setperm"));
  perm_rng.shuffle(set_perm_);

  stride_ = slab_stride(profile_);
  stride_mask_ = stride_ - 1;
  stack_arena_.assign(static_cast<std::size_t>(cfg.num_sets) * stride_, 0);
  stack_head_.assign(cfg.num_sets, 0);
  stack_size_.assign(cfg.num_sets, 0);
  next_uid_.assign(cfg.num_sets, 0);
  demand_.assign(cfg.num_sets, 1);
  writable_threshold_ = static_cast<std::uint32_t>(
      profile_.writable_fraction * 65536.0);
  branch_thr_ = to_threshold(profile_.branch_ratio);
  branch_mispred_thr_ =
      to_threshold(profile_.branch_ratio * profile_.mispredict_rate);
  mem_thr_ = to_threshold(profile_.branch_ratio + profile_.mem_ratio);
  mem_span_ = mem_thr_ - branch_thr_;
  mem_l2_thr_ = to_threshold(profile_.branch_ratio +
                             profile_.mem_ratio * profile_.l2_fraction);
  store_thr_ = to_threshold(profile_.store_fraction);
  offset_bits_ = log2i(cfg_.line_bytes);
  index_bits_ = log2i(cfg_.num_sets);
  memo_covers_line_ = cfg_.line_bytes <= 64;
  enter_phase(0);

  // Seed the L1-local target with one allocated block so the very first
  // local reference has something to touch.
  last_block_ = next_l2_ref();
  last_writable_ = writable_block(last_block_);
}

void SyntheticStream::enter_phase(std::size_t idx) {
  SNUG_REQUIRE(idx < profile_.phases.size());
  phase_idx_ = idx;
  const Phase& ph = profile_.phases[idx];

  // Demand map: shared across cores (seeded by benchmark + phase only).
  Rng demand_rng(Rng::derive_seed(profile_.name + "/demand", idx));
  std::vector<SetIndex> order(cfg_.num_sets);
  std::iota(order.begin(), order.end(), 0U);
  demand_rng.shuffle(order);

  // Apportion sets to bands by weight (largest-remainder rounding).
  const auto& bands = ph.mix.bands;
  SNUG_REQUIRE(!bands.empty());
  double wsum = 0.0;
  for (const auto& b : bands) wsum += b.weight;
  SNUG_REQUIRE(wsum > 0.0);
  std::size_t assigned = 0;
  for (std::size_t bi = 0; bi < bands.size(); ++bi) {
    const bool last = (bi + 1 == bands.size());
    const auto count =
        last ? cfg_.num_sets - assigned
             : static_cast<std::size_t>(
                   std::llround(bands[bi].weight / wsum * cfg_.num_sets));
    for (std::size_t k = 0; k < count && assigned < cfg_.num_sets; ++k) {
      const SetIndex s = order[assigned++];
      demand_[s] = static_cast<std::uint32_t>(
          demand_rng.range(bands[bi].lo, bands[bi].hi));
      SNUG_REQUIRE(demand_[s] >= 1);
      SNUG_REQUIRE(demand_[s] <= stride_);
    }
  }
  SNUG_ENSURE(assigned == cfg_.num_sets);

  // Shrink working sets that exceed the new demand; their overflow blocks
  // are simply never referenced again (a compulsory burst follows, which
  // is what a real phase change produces).  Slabs are MRU-first rings, so
  // truncation is just a size clamp — the tail beyond size is dead.
  for (SetIndex s = 0; s < cfg_.num_sets; ++s) {
    if (stack_size_[s] > demand_[s]) {
      stack_size_[s] = static_cast<std::uint16_t>(demand_[s]);
    }
  }

  rebuild_phase_tables();

  // Phase deadline in cumulative L2 refs.
  double cum = 0.0;
  for (std::size_t i = 0; i <= idx; ++i) cum += profile_.phases[i].fraction;
  const auto period_pos = l2_refs_ % cfg_.phase_period_refs;
  const auto base = l2_refs_ - period_pos;
  phase_end_refs_ =
      base + static_cast<std::uint64_t>(
                 cum * static_cast<double>(cfg_.phase_period_refs));
  if (phase_end_refs_ <= l2_refs_) {
    phase_end_refs_ = l2_refs_ + 1;  // degenerate fraction; keep advancing
  }
}

void SyntheticStream::rebuild_phase_tables() {
  const Phase& ph = profile_.phases[phase_idx_];

  // Stack-distance samplers for this phase: one alias table per live
  // depth d, over [1, d] with weights q^(k-1) (q == 1 is uniform) — the
  // same truncated-geometric law Rng::truncated_geometric implements,
  // answered in O(1) without per-draw pow/log.
  streaming_thr_ = to_threshold(ph.streaming_prob);
  std::vector<bool> depth_in_use(stride_ + 1, false);
  for (SetIndex s = 0; s < cfg_.num_sets; ++s) {
    depth_in_use[demand_[s]] = true;
  }
  tg_by_demand_.assign(stride_ + 1, AliasTable{});
  std::vector<double> weights;
  for (std::uint32_t d = 1; d <= stride_; ++d) {
    if (!depth_in_use[d]) continue;
    weights.assign(d, 1.0);
    for (std::uint32_t k = 1; k < d; ++k) {
      weights[k] = weights[k - 1] * ph.sd_q;
    }
    tg_by_demand_[d] = AliasTable(weights);
  }
}

void SyntheticStream::save_state(StateWriter& w) const {
  w.pod(rng_.state());
  w.pod(static_cast<std::uint64_t>(phase_idx_));
  w.pod(phase_end_refs_);
  w.vec(stack_arena_);
  w.vec(stack_head_);
  w.vec(stack_size_);
  w.vec(next_uid_);
  w.vec(demand_);
  w.pod(l2_refs_);
  w.pod(last_block_);
}

void SyntheticStream::load_state(StateReader& r) {
  rng_.set_state(r.pod<std::array<std::uint64_t, 4>>());
  phase_idx_ = static_cast<std::size_t>(r.pod<std::uint64_t>());
  SNUG_ENSURE(phase_idx_ < profile_.phases.size());
  phase_end_refs_ = r.pod<std::uint64_t>();
  stack_arena_ = r.vec<std::uint32_t>();
  stack_head_ = r.vec<std::uint16_t>();
  stack_size_ = r.vec<std::uint16_t>();
  next_uid_ = r.vec<std::uint32_t>();
  demand_ = r.vec<std::uint32_t>();
  SNUG_ENSURE(stack_arena_.size() ==
              static_cast<std::size_t>(cfg_.num_sets) * stride_);
  SNUG_ENSURE(stack_head_.size() == cfg_.num_sets);
  SNUG_ENSURE(stack_size_.size() == cfg_.num_sets);
  SNUG_ENSURE(next_uid_.size() == cfg_.num_sets);
  SNUG_ENSURE(demand_.size() == cfg_.num_sets);
  l2_refs_ = r.pod<std::uint64_t>();
  last_block_ = r.pod<Addr>();
  last_writable_ = writable_block(last_block_);
  // Derived per-phase tables (alias samplers, streaming threshold) are
  // rebuilt, NOT re-entered: enter_phase would clamp stacks and recompute
  // the phase deadline, both of which the snapshot already fixes.
  rebuild_phase_tables();
}

void SyntheticStream::maybe_advance_phase() {
  if (l2_refs_ < phase_end_refs_) return;
  const std::size_t next = (phase_idx_ + 1) % profile_.phases.size();
  enter_phase(next);
}

Addr SyntheticStream::make_block_addr(SetIndex set,
                                      std::uint32_t uid) const {
  // Keep uids below the address-base tag bits.
  SNUG_REQUIRE(uid < (1U << 24));
  return cfg_.addr_base |
         (static_cast<Addr>(uid) << (offset_bits_ + index_bits_)) |
         (static_cast<Addr>(set) << offset_bits_);
}

Addr SyntheticStream::next_l2_ref() {
  maybe_advance_phase();
  const SetIndex set = set_perm_[set_picker_.sample(rng_)];
  const std::uint32_t d = demand_[set];
  std::uint32_t* slab = stack_arena_.data() +
                        static_cast<std::size_t>(set) * stride_;
  std::uint32_t head = stack_head_[set];
  std::uint32_t size = stack_size_[set];

  std::uint32_t uid;
  bool fresh = size == 0 || rng_.next() < streaming_thr_;
  std::uint32_t k = 0;
  if (!fresh) {
    k = 1 + static_cast<std::uint32_t>(tg_by_demand_[d].sample(rng_));
    fresh = (k > size);
  }
  if (fresh) {
    uid = next_uid_[set]++;
    head = (head - 1) & stride_mask_;  // O(1) push-front on the ring
    slab[head] = uid;
    if (size < d) ++size;  // at size == d the LRU tail drops implicitly
  } else {
    // Move-to-front from depth k (1-based): shift depths 0..k-2 down one
    // slot and re-anchor the hit uid at the head.  Costs k-1 word moves.
    uid = slab[(head + k - 1) & stride_mask_];
    for (std::uint32_t j = k - 1; j > 0; --j) {
      slab[(head + j) & stride_mask_] =
          slab[(head + j - 1) & stride_mask_];
    }
    slab[head] = uid;
  }
  stack_head_[set] = static_cast<std::uint16_t>(head);
  stack_size_[set] = static_cast<std::uint16_t>(size);
  ++l2_refs_;
  return make_block_addr(set, uid);
}

std::uint8_t SyntheticStream::gen_code(Rng& rng, Addr& addr) {
  const std::uint64_t u = rng.next();
  // One unpredictable branch per instruction: memory op or not (the
  // wrap-around compare folds `branch_thr_ <= u < mem_thr_` into a
  // single unsigned test).  Everything else is branchless flag
  // arithmetic — data-dependent mispredicts on uniformly random draws
  // cost more than the cmovs that replace them.
  if (u - branch_thr_ < mem_span_) {
    const bool wants_store = rng.next() < store_thr_;
    bool writable;
    if (u < mem_l2_thr_) {  // exact conditional draw within the mem band
      // The rare out-of-line path draws from rng_ itself: the local copy
      // never escapes, so it stays in registers on the common path.
      rng_ = rng;
      addr = next_l2_ref();
      rng = rng_;
      last_block_ = addr;
      last_writable_ = writable_block(addr);
      writable = last_writable_;
    } else {
      // Intra-block locality: re-reference the last block at some offset.
      addr = last_block_ | (rng.next() & (cfg_.line_bytes - 1) & ~Addr{7});
      writable = memo_covers_line_ ? last_writable_ : writable_block(addr);
    }
    // Stores only dirty the program's store footprint; everything else is
    // read-only data and the op degrades to a load.  Non-short-circuit on
    // purpose: the flag is cheaper than a data-dependent mispredict.
    return static_cast<std::uint8_t>(InstrKind::kLoad) +
           static_cast<std::uint8_t>(wants_store & writable);
  }
  // Branch or compute; the mispredict flag is an exact conditional draw
  // (computes have u >= mem_thr_ > branch_mispred_thr_, so it stays 0).
  const bool is_branch = u < branch_thr_;
  const bool mispredict = u < branch_mispred_thr_;
  return static_cast<std::uint8_t>(is_branch) |
         static_cast<std::uint8_t>(mispredict ? kInstrMispredictBit : 0);
}

std::size_t SyntheticStream::fill_batch(std::uint8_t* code, Addr* addr,
                                        std::size_t n) {
  Rng rng = rng_;
  for (std::size_t i = 0; i < n; ++i) {
    code[i] = gen_code(rng, addr[i]);
  }
  rng_ = rng;
  return n;
}

Instr SyntheticStream::gen_next() {
  Addr addr = 0;
  const std::uint8_t code = gen_code(rng_, addr);
  Instr instr;
  instr.kind = static_cast<InstrKind>(code & 7);
  instr.mispredict = (code & kInstrMispredictBit) != 0;
  if ((code >> 1) == 1) instr.addr = addr;  // loads/stores only
  return instr;
}

std::uint32_t SyntheticStream::demand_of(SetIndex s) const {
  SNUG_REQUIRE(s < cfg_.num_sets);
  return demand_[s];
}

bool SyntheticStream::writable_block(Addr block) const noexcept {
  // SplitMix64-style finaliser: a stable pseudo-random property per block.
  std::uint64_t h =
      (block >> 6) * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL;
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
  h ^= h >> 31;
  return (h & 0xFFFF) < writable_threshold_;
}

}  // namespace snug::trace
