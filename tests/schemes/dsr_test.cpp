#include <gtest/gtest.h>

#include "schemes/dsr_scheme.hpp"

#include "scheme_test_util.hpp"

namespace snug::schemes {
namespace {

using testutil::block_addr;
using testutil::small_context;

struct DsrFixture {
  // Epochs sized so every training sequence (hundreds of touches at 50
  // cycles each, across all four cores) completes inside one stage.
  static constexpr Cycle kIdentify = 400'000;
  static constexpr Cycle kGroup = 1'600'000;

  DsrFixture() {
    DsrConfig dcfg;
    dcfg.epochs = {kIdentify, kGroup};
    scheme = std::make_unique<DsrScheme>(ctx.priv, dcfg, bus, dram);
  }
  bus::SnoopBus bus{bus::BusConfig{}};
  dram::DramModel dram{dram::DramConfig{}};
  SchemeBuildContext ctx = small_context();
  std::unique_ptr<DsrScheme> scheme;
  Cycle clock = 0;

  Cycle touch(CoreId c, SetIndex s, std::uint64_t uid) {
    clock += 50;
    scheme->tick(clock);
    return scheme->access(c, block_addr(ctx.priv.l2, c, s, uid), false,
                          clock);
  }

  /// Deep reuse beyond the 4 ways across many sets: an app-level taker.
  void train_taker_app(CoreId c, int rounds = 10) {
    for (int r = 0; r < rounds; ++r) {
      for (SetIndex s = 0; s < 16; ++s) {
        for (std::uint64_t uid = 0; uid < 8; ++uid) touch(c, s, uid);
      }
    }
  }

  /// Small working set everywhere: an app-level giver.
  void train_giver_app(CoreId c, int rounds = 40) {
    for (int r = 0; r < rounds; ++r) {
      for (SetIndex s = 0; s < 16; ++s) touch(c, s, 0);
    }
  }

  void finish_identify() {
    SNUG_REQUIRE(clock < kIdentify);  // training must not leak into group
    clock = kIdentify + 1;
    scheme->tick(clock);
  }
};

TEST(DSR, ColdStartEveryoneReceives) {
  DsrFixture f;
  for (CoreId c = 0; c < 4; ++c) {
    EXPECT_EQ(f.scheme->role_of(c), DsrScheme::Role::kReceiver);
  }
}

TEST(DSR, AppLevelClassification) {
  DsrFixture f;
  f.train_taker_app(0);
  f.train_giver_app(1);
  f.train_giver_app(2);
  f.train_giver_app(3);
  f.finish_identify();
  EXPECT_EQ(f.scheme->role_of(0), DsrScheme::Role::kSpiller);
  EXPECT_EQ(f.scheme->role_of(1), DsrScheme::Role::kReceiver);
  EXPECT_EQ(f.scheme->role_of(2), DsrScheme::Role::kReceiver);
  EXPECT_EQ(f.scheme->role_of(3), DsrScheme::Role::kReceiver);
}

TEST(DSR, RoleAgreesWithGtVectorAtEverySet) {
  DsrFixture f;
  f.train_taker_app(0);
  f.train_giver_app(1);
  f.train_giver_app(2);
  f.train_taker_app(3);
  f.finish_identify();
  for (CoreId c = 0; c < 4; ++c) {
    const bool spiller = f.scheme->role_of(c) == DsrScheme::Role::kSpiller;
    EXPECT_EQ(spiller, c == 0 || c == 3) << "cache " << c;
    const core::GtVector& gt = f.scheme->gt(c);
    for (SetIndex s = 0; s < gt.num_sets(); ++s) {
      EXPECT_EQ(gt.taker(s), spiller) << "cache " << c << " set " << s;
    }
  }
}

TEST(DSR, SpillerSpillsIntoReceiversSameIndex) {
  DsrFixture f;
  f.train_taker_app(0);
  for (CoreId c = 1; c < 4; ++c) f.train_giver_app(c);
  f.finish_identify();
  const std::uint64_t before = f.scheme->stats().spills();
  for (std::uint64_t uid = 20; uid < 30; ++uid) f.touch(0, 3, uid);
  EXPECT_GT(f.scheme->stats().spills(), before);
  // Guests live at the same index (f == 0), in receiver caches.
  std::uint64_t guests = 0;
  for (CoreId c = 1; c < 4; ++c) {
    const auto& set3 = f.scheme->slice(c).set(3);
    for (WayIndex w = 0; w < set3.assoc(); ++w) {
      const auto& line = set3.line(w);
      if (line.valid && line.cc) {
        EXPECT_FALSE(line.flipped);
        ++guests;
      }
    }
  }
  EXPECT_GT(guests, 0U);
}

TEST(DSR, IdenticalTakerAppsNeverSpill) {
  // The paper's C1/C2 story: identical applications have no app-level
  // demand difference, so DSR finds no receivers.
  DsrFixture f;
  for (CoreId c = 0; c < 4; ++c) f.train_taker_app(c, 6);
  f.finish_identify();
  for (CoreId c = 0; c < 4; ++c) {
    EXPECT_EQ(f.scheme->role_of(c), DsrScheme::Role::kSpiller);
  }
  const std::uint64_t before = f.scheme->stats().spills();
  for (std::uint64_t uid = 20; uid < 30; ++uid) f.touch(0, 3, uid);
  EXPECT_EQ(f.scheme->stats().spills(), before);
  EXPECT_GT(f.scheme->stats().spill_no_target(), 0U);
}

TEST(DSR, RetrieveRestoresSpilledBlockAt30Cycles) {
  DsrFixture f;
  f.train_taker_app(0);
  for (CoreId c = 1; c < 4; ++c) f.train_giver_app(c);
  f.finish_identify();
  for (std::uint64_t uid = 20; uid < 28; ++uid) f.touch(0, 3, uid);
  const auto& geo = f.ctx.priv.l2;
  for (std::uint64_t uid = 20; uid < 28; ++uid) {
    const Addr a = block_addr(geo, 0, 3, uid);
    if (f.scheme->cc_copies_of(a) == 1) {
      f.clock += 100'000;  // quiet bus
      f.scheme->tick(f.clock);
      const auto before = f.scheme->stats().remote_hits();
      const Cycle done = f.scheme->access(0, a, false, f.clock);
      EXPECT_EQ(f.scheme->stats().remote_hits(), before + 1);
      EXPECT_EQ(done - f.clock, 30U);  // DSR remote latency (Section 4.1)
      EXPECT_EQ(f.scheme->cc_copies_of(a), 0U);
      return;
    }
  }
  FAIL() << "no cooperative copy found to retrieve";
}

TEST(DSR, NoSpillsDuringIdentifyStage) {
  DsrFixture f;
  f.train_taker_app(0);
  for (CoreId c = 1; c < 4; ++c) f.train_giver_app(c);
  f.finish_identify();
  // Enter the NEXT identify stage: spilling must stop there.
  f.clock += DsrFixture::kGroup + 1;
  f.scheme->tick(f.clock);
  ASSERT_EQ(f.scheme->stage(), core::Stage::kIdentify);
  const std::uint64_t before = f.scheme->stats().spills();
  for (std::uint64_t uid = 40; uid < 50; ++uid) f.touch(0, 5, uid);
  EXPECT_EQ(f.scheme->stats().spills(), before);
  EXPECT_GT(f.scheme->stats().spill_blocked_stage(), 0U);
}

TEST(DSR, AtMostOneCooperativeCopy) {
  DsrFixture f;
  f.train_taker_app(0);
  for (CoreId c = 1; c < 4; ++c) f.train_giver_app(c);
  f.finish_identify();
  for (int round = 0; round < 5; ++round) {
    for (std::uint64_t uid = 20; uid < 30; ++uid) f.touch(0, 3, uid);
  }
  const auto& geo = f.ctx.priv.l2;
  for (std::uint64_t uid = 20; uid < 30; ++uid) {
    EXPECT_LE(f.scheme->cc_copies_of(block_addr(geo, 0, 3, uid)), 1U);
  }
}

}  // namespace
}  // namespace snug::schemes
