#include "trace/synth_stream.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "cache/geometry.hpp"
#include "cache/stack_profiler.hpp"

namespace snug::trace {
namespace {

StreamConfig small_cfg(std::uint64_t seed = 1) {
  StreamConfig cfg;
  cfg.num_sets = 64;
  cfg.line_bytes = 64;
  cfg.phase_period_refs = 50'000;
  cfg.stream_seed = seed;
  return cfg;
}

TEST(SynthStream, DeterministicForSameSeed) {
  SyntheticStream a(profile_for("ammp"), small_cfg(7));
  SyntheticStream b(profile_for("ammp"), small_cfg(7));
  for (int i = 0; i < 5000; ++i) {
    const Instr ia = a.next();
    const Instr ib = b.next();
    EXPECT_EQ(static_cast<int>(ia.kind), static_cast<int>(ib.kind));
    EXPECT_EQ(ia.addr, ib.addr);
  }
}

TEST(SynthStream, DifferentSeedsDifferentInterleaving) {
  SyntheticStream a(profile_for("ammp"), small_cfg(1));
  SyntheticStream b(profile_for("ammp"), small_cfg(2));
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next().addr == b.next().addr) ++same;
  }
  EXPECT_LT(same, 900);
}

TEST(SynthStream, DemandMapSharedAcrossSeeds) {
  // Stress-test requirement: identical benchmarks have identical set-level
  // demand regardless of the per-core seed.
  SyntheticStream a(profile_for("ammp"), small_cfg(1));
  SyntheticStream b(profile_for("ammp"), small_cfg(99));
  for (SetIndex s = 0; s < 64; ++s) {
    EXPECT_EQ(a.demand_of(s), b.demand_of(s));
  }
}

TEST(SynthStream, InstructionMixMatchesProfile) {
  const auto& prof = profile_for("parser");
  SyntheticStream stream(prof, small_cfg());
  std::map<InstrKind, int> counts;
  constexpr int kN = 200'000;
  for (int i = 0; i < kN; ++i) ++counts[stream.next().kind];
  const double mem_frac =
      static_cast<double>(counts[InstrKind::kLoad] +
                          counts[InstrKind::kStore]) /
      kN;
  const double branch_frac =
      static_cast<double>(counts[InstrKind::kBranch]) / kN;
  EXPECT_NEAR(mem_frac, prof.mem_ratio, 0.01);
  EXPECT_NEAR(branch_frac, prof.branch_ratio, 0.01);
}

TEST(SynthStream, AddressesCarryBaseAndStayInSets) {
  StreamConfig cfg = small_cfg();
  cfg.addr_base = Addr{3} << 40;
  SyntheticStream stream(profile_for("gzip"), cfg);
  const cache::CacheGeometry geo(64ULL * 64 * 16, 16, 64);  // 64 sets
  for (int i = 0; i < 20'000; ++i) {
    const Instr instr = stream.next();
    if (instr.kind != InstrKind::kLoad && instr.kind != InstrKind::kStore) {
      continue;
    }
    EXPECT_EQ(instr.addr >> 40, 3U);
    EXPECT_LT(geo.set_of(instr.addr), 64U);
  }
}

TEST(SynthStream, MeasuredDemandMatchesConfiguredDemand) {
  // Feed the stream's L2 references into a stack profiler: the measured
  // block_required(S) must equal the generator's demand_of(S) for sets
  // with enough traffic.  This is the load-bearing property for the whole
  // reproduction (README.md, "Modelling substitutions").
  StreamConfig cfg = small_cfg();
  cfg.phase_period_refs = 10'000'000;  // stay in phase 0 throughout
  SyntheticStream stream(profile_for("ammp"), cfg);
  cache::LruStackProfiler profiler(64, 32);
  const cache::CacheGeometry geo(64ULL * 64 * 16, 16, 64);

  std::vector<std::uint64_t> per_set(64, 0);
  for (std::uint64_t i = 0; i < 400'000; ++i) {
    const Addr a = stream.next_l2_access();
    const SetIndex s = geo.set_of(a);
    profiler.access(s, geo.tag_of(a));
    ++per_set[s];
  }
  int checked = 0;
  for (SetIndex s = 0; s < 64; ++s) {
    if (per_set[s] < 2000) continue;  // not enough samples
    const std::uint32_t configured = stream.demand_of(s);
    const std::uint32_t measured = profiler.block_required(s);
    // Measured demand can never exceed the configured working-set depth.
    EXPECT_LE(measured, configured) << "set " << s;
    if (configured <= 12) {
      // Shallow sets are sampled densely enough for an exact match.
      EXPECT_EQ(measured, configured) << "set " << s;
    } else {
      // The deepest stack position of a large working set is touched with
      // probability ~q^(d-1); allow the extreme tail to be unsampled.
      EXPECT_GE(measured + 3, configured) << "set " << s;
    }
    ++checked;
  }
  EXPECT_GT(checked, 20);
}

TEST(SynthStream, BatchAndNextAreSameStream) {
  // The core model consumes fill_batch, the characterisation layer
  // consumes next(); both must be the same instruction stream draw for
  // draw.  (They share gen_code by construction — this pins the shared
  // decoding too.)
  SyntheticStream a(profile_for("parser"), small_cfg(3));
  SyntheticStream b(profile_for("parser"), small_cfg(3));
  constexpr std::size_t kBatch = 64;
  std::uint8_t code[kBatch];
  Addr addr[kBatch];
  for (int round = 0; round < 300; ++round) {
    ASSERT_EQ(a.fill_batch(code, addr, kBatch), kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      const Instr in = b.next();
      ASSERT_EQ(code[i], encode_instr(in.kind, in.mispredict))
          << "round " << round << " instr " << i;
      if (in.kind == InstrKind::kLoad || in.kind == InstrKind::kStore) {
        ASSERT_EQ(addr[i], in.addr) << "round " << round << " instr " << i;
      }
    }
  }
  EXPECT_EQ(a.l2_refs(), b.l2_refs());
}

TEST(SynthStream, StackDistancesAreTruncatedGeometric) {
  // Distributional pin for the arena rewrite: once a set's working set is
  // full (size == d) and streaming is off, every reference to it is a hit
  // whose stack distance is exactly truncated-geometric on [1, d].  An
  // independent shadow LRU stack per set observes the generated address
  // sequence, and the measured depth histogram is chi-squared against
  // P(k) ~ q^(k-1) / (1 - q^d).  This is the stack-property contract
  // (block_required(S, I) == d(s)) expressed as a distribution test.
  constexpr std::uint32_t kDepth = 16;
  constexpr double kQ = 0.8;
  BenchmarkProfile prof;
  prof.name = "tg-pin";
  prof.set_zipf_alpha = 0.0;  // uniform set popularity: even sampling
  Phase ph;
  ph.fraction = 1.0;
  ph.streaming_prob = 0.0;  // no compulsory allocations after warm-up
  ph.sd_q = kQ;
  ph.mix.bands = {{1.0, kDepth, kDepth}};
  prof.phases = {ph};

  StreamConfig cfg = small_cfg();
  cfg.phase_period_refs = 100'000'000;  // stay in phase 0 throughout
  SyntheticStream stream(prof, cfg);
  const cache::CacheGeometry geo(64ULL * 64 * 16, 16, 64);  // 64 sets

  std::vector<std::vector<Addr>> shadow(64);  // MRU-first per set
  std::vector<std::uint64_t> depth_counts(kDepth + 1, 0);
  for (std::uint64_t i = 0; i < 400'000; ++i) {
    const Addr a = stream.next_l2_access();
    auto& st = shadow[geo.set_of(a)];
    const Addr block = geo.block_of(a);
    const auto it = std::find(st.begin(), st.end(), block);
    if (it == st.end()) {
      st.insert(st.begin(), block);  // compulsory fill during warm-up
      continue;
    }
    const auto depth = static_cast<std::size_t>(it - st.begin()) + 1;
    ASSERT_LE(depth, kDepth);
    st.erase(it);
    st.insert(st.begin(), block);
    if (st.size() >= kDepth) ++depth_counts[depth];  // steady state only
  }

  std::uint64_t total = 0;
  for (std::size_t k = 1; k <= kDepth; ++k) total += depth_counts[k];
  ASSERT_GT(total, 100'000U);

  const double norm = (1.0 - std::pow(kQ, kDepth)) / (1.0 - kQ);
  double chi2 = 0.0;
  for (std::size_t k = 1; k <= kDepth; ++k) {
    const double expected =
        std::pow(kQ, static_cast<double>(k - 1)) / norm *
        static_cast<double>(total);
    ASSERT_GE(expected, 8.0);
    const double d = static_cast<double>(depth_counts[k]) - expected;
    chi2 += d * d / expected;
  }
  const double dof = kDepth - 1;
  EXPECT_LT(chi2, dof + 6.0 * std::sqrt(2.0 * dof)) << "chi2 " << chi2;
}

TEST(SynthStream, PhaseBoundariesLandAtExactFractions) {
  // Regression pin for enter_phase/maybe_advance_phase: phase i ends at
  // exactly base + floor(cum_fraction_i * phase_period_refs) L2 refs —
  // the x-axis contract the characterisation benches rely on — and the
  // wrap into the next period rebuilds the same demand map (seeded by
  // benchmark + phase only).
  StreamConfig cfg = small_cfg();
  const std::uint64_t P = 10'000;
  cfg.phase_period_refs = P;
  SyntheticStream stream(profile_for("vortex"), cfg);
  const auto& phases = stream.profile().phases;
  ASSERT_EQ(phases.size(), 3U);

  std::vector<std::uint32_t> demand_p0(64);
  for (SetIndex s = 0; s < 64; ++s) demand_p0[s] = stream.demand_of(s);

  // Expected boundaries, replicating enter_phase's arithmetic.
  const auto boundary = [&](std::uint64_t base, std::size_t idx) {
    double cum = 0.0;
    for (std::size_t i = 0; i <= idx; ++i) cum += phases[i].fraction;
    return base + static_cast<std::uint64_t>(cum * static_cast<double>(P));
  };

  // Observed transitions: the l2_refs() value the stream reports the
  // first time it generates in the new phase is boundary + 1 (the
  // boundary-crossing reference itself is drawn in the new phase).
  std::size_t prev_phase = stream.current_phase();
  std::vector<std::uint64_t> observed;
  while (stream.l2_refs() < 2 * P + P / 2) {
    stream.next_l2_access();
    if (stream.current_phase() != prev_phase) {
      prev_phase = stream.current_phase();
      observed.push_back(stream.l2_refs() - 1);  // ref count at the switch
    }
  }
  ASSERT_GE(observed.size(), 6U);  // two full periods of 3 phases
  EXPECT_EQ(observed[0], boundary(0, 0));
  EXPECT_EQ(observed[1], boundary(0, 1));
  EXPECT_EQ(observed[2], boundary(0, 2));  // wrap into period 1
  EXPECT_EQ(observed[3], boundary(P, 0));
  EXPECT_EQ(observed[4], boundary(P, 1));
  EXPECT_EQ(observed[5], boundary(P, 2));

  // After the wrap the stream is back in phase 0 with the same demand.
  SyntheticStream probe(profile_for("vortex"), cfg);
  while (probe.l2_refs() <= boundary(P, 2)) probe.next_l2_access();
  ASSERT_EQ(probe.current_phase(), 0U);
  for (SetIndex s = 0; s < 64; ++s) {
    EXPECT_EQ(probe.demand_of(s), demand_p0[s]) << "set " << s;
  }
}

TEST(SynthStream, DemandAgreesAcrossFourCopiesThroughPhaseChange) {
  // The C1/C2 stress-test assumption: four cores running the same
  // benchmark see the same per-set demand in every phase, no matter how
  // differently their private interleavings draw from the stacks.
  StreamConfig cfgs[4] = {small_cfg(0), small_cfg(1), small_cfg(2),
                          small_cfg(3)};
  cfgs[1].addr_base = Addr{1} << 40;
  cfgs[2].addr_base = Addr{2} << 40;
  cfgs[3].addr_base = Addr{3} << 40;
  std::vector<std::unique_ptr<SyntheticStream>> streams;
  for (const auto& c : cfgs) {
    streams.push_back(
        std::make_unique<SyntheticStream>(profile_for("vortex"), c));
  }
  // Step all four in lockstep across two phase boundaries.
  for (int round = 0; round < 3; ++round) {
    const std::uint64_t target = (round + 1) * 20'000;
    for (auto& s : streams) {
      while (s->l2_refs() < target) s->next_l2_access();
    }
    for (auto& s : streams) {
      ASSERT_EQ(s->current_phase(), streams[0]->current_phase());
      for (SetIndex set = 0; set < 64; ++set) {
        ASSERT_EQ(s->demand_of(set), streams[0]->demand_of(set))
            << "round " << round << " set " << set;
      }
    }
  }
}

TEST(SynthStream, PhaseAdvancesAndRevisits) {
  StreamConfig cfg = small_cfg();
  cfg.phase_period_refs = 9'000;  // three phases of 3.6k/3.5k/1.9k refs
  SyntheticStream stream(profile_for("vortex"), cfg);
  std::size_t max_phase = 0;
  std::uint64_t guard = 0;
  while (stream.l2_refs() < 20'000 && guard++ < 5'000'000) {
    stream.next();
    max_phase = std::max(max_phase, stream.current_phase());
  }
  EXPECT_EQ(max_phase, 2U);               // visited all three phases
  EXPECT_LT(stream.current_phase(), 3U);  // wrapped around the period
}

TEST(SynthStream, StreamingProfileAllocatesNewBlocks) {
  SyntheticStream stream(profile_for("applu"), small_cfg());
  const cache::CacheGeometry geo(64ULL * 64 * 16, 16, 64);
  std::map<Addr, int> block_touches;
  int l2_like = 0;
  for (int i = 0; i < 100'000 && l2_like < 5'000; ++i) {
    const Instr instr = stream.next();
    if (instr.kind != InstrKind::kLoad && instr.kind != InstrKind::kStore) {
      continue;
    }
    ++block_touches[geo.block_of(instr.addr)];
    ++l2_like;
  }
  // Streaming: the bulk of distinct blocks is touched only a handful of
  // times (the L1-local re-references inflate counts slightly).
  std::size_t distinct = block_touches.size();
  EXPECT_GT(distinct, 150U);
}

TEST(SynthStream, DemandsComeFromConfiguredBands) {
  SyntheticStream stream(profile_for("vpr"), small_cfg());
  for (SetIndex s = 0; s < 64; ++s) {
    EXPECT_GE(stream.demand_of(s), 18U);
    EXPECT_LE(stream.demand_of(s), 22U);
  }
}

TEST(SynthStream, BandWeightsRespected) {
  StreamConfig cfg = small_cfg();
  cfg.num_sets = 1024;
  SyntheticStream stream(profile_for("ammp"), cfg);
  int shallow = 0;
  for (SetIndex s = 0; s < 1024; ++s) {
    if (stream.demand_of(s) <= 4) ++shallow;
  }
  // 40% of 1024 = 410 (rounding tolerance).
  EXPECT_NEAR(shallow, 410, 12);
}

TEST(WritableFootprint, DeterministicPerBlock) {
  trace::StreamConfig cfg;
  cfg.stream_seed = 3;
  trace::SyntheticStream stream(trace::profile_for("ammp"), cfg);
  for (Addr block = 0; block < 64 * 100; block += 64) {
    EXPECT_EQ(stream.writable_block(block), stream.writable_block(block));
  }
}

TEST(WritableFootprint, FractionRoughlyMatchesProfile) {
  trace::StreamConfig cfg;
  cfg.stream_seed = 3;
  trace::SyntheticStream stream(trace::profile_for("ammp"), cfg);
  const double target = trace::profile_for("ammp").writable_fraction;
  int writable = 0;
  constexpr int kBlocks = 20000;
  for (int i = 0; i < kBlocks; ++i) {
    if (stream.writable_block(static_cast<Addr>(i) * 64)) ++writable;
  }
  EXPECT_NEAR(static_cast<double>(writable) / kBlocks, target, 0.02);
}

TEST(WritableFootprint, StoresOnlyTargetWritableBlocks) {
  trace::StreamConfig cfg;
  cfg.stream_seed = 5;
  trace::SyntheticStream stream(trace::profile_for("parser"), cfg);
  for (int i = 0; i < 100'000; ++i) {
    const trace::Instr instr = stream.next();
    if (instr.kind == trace::InstrKind::kStore) {
      EXPECT_TRUE(stream.writable_block(instr.addr & ~Addr{63}));
    }
  }
}

}  // namespace
}  // namespace snug::trace
