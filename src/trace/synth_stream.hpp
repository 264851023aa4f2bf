// SyntheticStream — the workload generator.
//
// Produces an infinite instruction stream whose L2-bound data references
// have a *controlled per-set capacity demand*: for each L2 set s the
// generator maintains a working set of up to d(s) blocks (d sampled from
// the profile's demand bands) and emits references whose LRU stack
// distance is drawn from a truncated-geometric distribution on [1, d(s)].
// Under LRU this makes the paper's block_required(S, I) equal d(s) exactly
// (see tests/cache/stack_property_test.cpp), which is what lets the
// characterisation benches reproduce Figures 1-3 and the timing benches
// reproduce the giver/taker structure of Figures 9-11.
//
// Determinism & the stress tests: the per-set demand map is seeded from
// the *benchmark name only*, so four copies of the same benchmark have
// identical set-level demand (paper Section 4.2: the C1/C2 stress tests
// assume "the same capacity demand at both application and set levels"),
// while the access interleaving is seeded per core.
#pragma once

#include <cstdint>
#include <vector>

#include "common/alias.hpp"
#include "common/rng.hpp"
#include "common/state_io.hpp"
#include "common/types.hpp"
#include "common/zipf.hpp"
#include "trace/instr.hpp"
#include "trace/profile.hpp"

namespace snug::trace {

struct StreamConfig {
  std::uint32_t num_sets = 1024;   ///< L2 sets the stream targets
  std::uint32_t line_bytes = 64;
  Addr addr_base = 0;              ///< high-bit core tag (disjoint spaces)
  /// L2 references per full pass through the profile's phases.  The
  /// characterisation benches set this to intervals x interval_length so
  /// phase boundaries land at the paper's x-axis positions.
  std::uint64_t phase_period_refs = 1'000'000;
  std::uint64_t stream_seed = 1;   ///< per-core interleaving seed
};

class SyntheticStream final : public InstrStream {
 public:
  SyntheticStream(const BenchmarkProfile& profile, const StreamConfig& cfg);

  Instr next() override { return gen_next(); }

  /// Sealed batch synthesis: the whole generator loop runs devirtualised
  /// inside this one call, so a core consuming through the InstrStream
  /// interface pays one virtual dispatch per batch, not per instruction —
  /// and the SoA form skips Instr construction entirely.
  std::size_t fill_batch(std::uint8_t* code, Addr* addr,
                         std::size_t n) override;

  /// Generates the next L2-bound block address directly, skipping compute
  /// and L1-local filler.  The characterisation benches use this to reach
  /// the paper's 100 M-access sampling campaign in seconds; the address
  /// sequence is the same one `next()` would embed in the full stream of
  /// this generator state.
  Addr next_l2_access() { return next_l2_ref(); }

  [[nodiscard]] std::uint64_t l2_refs() const override { return l2_refs_; }
  [[nodiscard]] const char* name() const override {
    return profile_.name.c_str();
  }

  /// Demand (blocks) of set s in the current phase; used by tests.
  [[nodiscard]] std::uint32_t demand_of(SetIndex s) const;

  /// Whether this block belongs to the store footprint (deterministic,
  /// hash-based; see BenchmarkProfile::writable_fraction).
  [[nodiscard]] bool writable_block(Addr block) const noexcept;
  [[nodiscard]] std::size_t current_phase() const { return phase_idx_; }
  [[nodiscard]] const BenchmarkProfile& profile() const { return profile_; }

  /// Warm-state serialization: generator cursors (RNG lanes, phase index
  /// and deadline, per-set LRU slabs, uid allocators, demand map, ref
  /// count, L1-local target) round-trip bit-exactly for a stream built
  /// from the same (profile, StreamConfig); derived tables are rebuilt
  /// on load.  The restored stream resumes draw-for-draw.
  void save_state(StateWriter& w) const;
  void load_state(StateReader& r);

 private:
  void enter_phase(std::size_t idx);
  /// Rebuilds the derived per-phase state (alias tables, streaming
  /// threshold) from demand_ + phase_idx_; shared by enter_phase and
  /// load_state.
  void rebuild_phase_tables();
  void maybe_advance_phase();
  Addr make_block_addr(SetIndex set, std::uint32_t uid) const;
  Addr next_l2_ref();
  /// The single per-instruction generator both consumption paths share:
  /// returns the SoA code byte (see trace::encode_instr) and writes
  /// `addr` for loads/stores.  fill_batch loops it; next()/gen_next
  /// decodes it into an Instr — keeping the two paths draw-for-draw
  /// identical by construction (pinned by
  /// tests/trace/synth_stream_test.cpp BatchAndNextAreSameStream).
  /// `rng` is rng_ itself (gen_next) or fill_batch's local copy of it:
  /// the batch's byte and address stores may alias the member's lanes,
  /// which would then be reloaded every instruction.  The copy is synced
  /// with rng_ around next_l2_ref, which draws from rng_.
  std::uint8_t gen_code(Rng& rng, Addr& addr);
  Instr gen_next();

  BenchmarkProfile profile_;
  StreamConfig cfg_;
  Rng rng_;                         // per-core interleaving
  ZipfSampler set_picker_;
  std::vector<SetIndex> set_perm_;  // shared across cores of a benchmark

  std::size_t phase_idx_ = 0;
  std::uint64_t phase_end_refs_ = 0;  // l2 ref count at which phase ends
  // Per-set LRU stacks, MRU-first, flattened into one arena of
  // fixed-stride circular slabs (stride = max band demand rounded up to a
  // power of two, ≤ 32 == A_threshold).  A slab is a ring anchored at
  // head: depth j lives at slab[(head + j) & stride_mask].  Push-front is
  // O(1) (head moves back one slot) and a move-to-front from depth k
  // shifts only the k-1 slots in front of it — geometric-small under the
  // stack-distance distribution — where the former vector<vector> paid an
  // O(d) insert(begin)+erase memmove per reference.
  std::vector<std::uint32_t> stack_arena_;   // num_sets slabs x stride uids
  std::vector<std::uint16_t> stack_head_;    // MRU offset within the slab
  std::vector<std::uint16_t> stack_size_;    // live depth (<= demand_[s])
  std::vector<std::uint32_t> next_uid_;      // per-set block allocator
  std::vector<std::uint32_t> demand_;        // d(s) for current phase
  std::uint32_t stride_ = 0;
  std::uint32_t stride_mask_ = 0;

  // O(1) stack-distance sampling: one alias table per working-set depth d
  // present in the current phase, over [1, d] with weights q^(k-1) —
  // rebuilt at phase entry.  Replaces Rng::truncated_geometric, whose
  // per-draw pow/log dominated the reference cost once the Zipf draw
  // became O(1).
  std::vector<AliasTable> tg_by_demand_;  // indexed by d; built when used

  // Integer decision thresholds (p * 2^64): one raw 64-bit draw and an
  // integer compare per decision instead of uniform()'s int-to-double
  // conversion and double compare.  Exact-zero probabilities stay exact
  // (u < 0 never holds); exact-one loses 2^-64 — unobservable.
  //
  // The kind draw u is reused for the decisions nested inside its
  // outcome: conditional on u < branch_thr_, u is uniform on
  // [0, branch_thr_), so `u < branch_thr_ * mispredict_rate` is an exact
  // Bernoulli(mispredict_rate) — same for the L2-vs-local split within
  // the memory band.  Two fewer RNG draws per instruction, exactly the
  // same distribution.
  std::uint64_t branch_thr_ = 0;
  std::uint64_t branch_mispred_thr_ = 0;  // branch_ratio * mispredict_rate
  std::uint64_t mem_thr_ = 0;
  std::uint64_t mem_span_ = 0;    // mem_thr_ - branch_thr_ (one-test band)
  std::uint64_t mem_l2_thr_ = 0;  // branch_ratio + mem_ratio * l2_fraction
  std::uint64_t store_thr_ = 0;
  std::uint64_t streaming_thr_ = 0;  // per phase
  std::uint32_t offset_bits_ = 0;
  std::uint32_t index_bits_ = 0;

  std::uint64_t l2_refs_ = 0;
  Addr last_block_ = 0;  // target of L1-local re-references
  std::uint32_t writable_threshold_ = 0;  // writable_fraction * 2^16
  // writable_block(last_block_), memoised: about 96% of data references
  // re-touch last_block_.  Derived (recomputed on load, never saved).
  // writable_block hashes addr >> 6, so the memo also answers the
  // re-references at any offset exactly when lines are <= 64 bytes;
  // wider lines hash each re-reference instead.
  bool last_writable_ = false;
  bool memo_covers_line_ = true;  // line_bytes <= 64
};

}  // namespace snug::trace
