#include "cpu/core.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"

namespace snug::cpu {
namespace {

/// Scripted instruction stream for deterministic core tests.
class ScriptedStream final : public trace::InstrStream {
 public:
  explicit ScriptedStream(std::vector<trace::Instr> script)
      : script_(std::move(script)) {}

  trace::Instr next() override {
    if (pos_ < script_.size()) return script_[pos_++];
    return {};  // endless computes afterwards
  }
  [[nodiscard]] std::uint64_t l2_refs() const override { return 0; }
  [[nodiscard]] const char* name() const override { return "scripted"; }

 private:
  std::vector<trace::Instr> script_;
  std::size_t pos_ = 0;
};

/// Memory with a programmable flat latency; records requests.  Every
/// L1 probe misses, so each access takes the shared-state miss half —
/// the path a free-running core parks at.
class FlatMemory {
 public:
  explicit FlatMemory(Cycle latency) : latency_(latency) {}

  bool probe_data(CoreId, Addr, bool) { return false; }
  Cycle miss_data(CoreId, Addr addr, bool is_write, Cycle now) {
    data_reqs.push_back({addr, is_write, now});
    return now + latency_;
  }
  bool probe_inst(CoreId, Addr) { return false; }
  Cycle miss_inst(CoreId, Addr addr, Cycle now) {
    ifetches.push_back({addr, false, now});
    return now + ifetch_latency;
  }

  struct Req {
    Addr addr;
    bool write;
    Cycle at;
  };
  std::vector<Req> data_reqs;
  std::vector<Req> ifetches;
  Cycle ifetch_latency = 1;

 private:
  Cycle latency_;
};

CoreConfig small_cfg() {
  CoreConfig cfg;
  cfg.issue_width = 2;
  cfg.rob_entries = 8;
  cfg.lsq_entries = 4;
  cfg.branch_penalty = 3;
  return cfg;
}

trace::Instr load(Addr a) {
  return {trace::InstrKind::kLoad, a, false};
}

TEST(Core, ComputeOnlyReachesIssueWidth) {
  ScriptedStream stream({});
  FlatMemory mem(1);
  Core core(0, small_cfg(), stream, mem);
  for (Cycle t = 0; t < 1000; ++t) core.step(t, t + 1);
  // 2-wide core on pure compute: IPC ~ 2.
  EXPECT_NEAR(core.ipc(1000), 2.0, 0.1);
}

TEST(Core, LongLoadStallsWhenRobFills) {
  // One long load followed by computes: the ROB (8 entries) fills, then
  // the core waits for the load to retire.
  std::vector<trace::Instr> script{load(0x1000)};
  ScriptedStream stream(script);
  FlatMemory mem(300);
  Core core(0, small_cfg(), stream, mem);
  for (Cycle t = 0; t < 400; ++t) core.step(t, t + 1);
  // Retired at most: before the load there were no instrs; the load
  // completes around cycle ~300; 8-entry ROB caps progress before that.
  EXPECT_LE(core.stats().retired, 8U + 200U);
  EXPECT_GT(core.stats().rob_full_cycles, 200U);
}

TEST(Core, IndependentMissesOverlap) {
  // Two loads dispatched back-to-back must overlap: total time well below
  // 2 x latency (memory-level parallelism).
  std::vector<trace::Instr> script{load(0x1000), load(0x2000)};
  ScriptedStream stream(script);
  FlatMemory mem(100);
  Core core(0, small_cfg(), stream, mem);
  for (Cycle t = 0; t < 130; ++t) core.step(t, t + 1);
  // Both loads issued in the first cycles and completed by ~t=110.
  ASSERT_EQ(mem.data_reqs.size(), 2U);
  EXPECT_LE(mem.data_reqs[1].at, 2U);
  EXPECT_GE(core.stats().retired, 2U);
}

TEST(Core, StoresDoNotBlockRetirement) {
  std::vector<trace::Instr> script{
      {trace::InstrKind::kStore, 0x1000, false}};
  ScriptedStream stream(script);
  FlatMemory mem(300);
  Core core(0, small_cfg(), stream, mem);
  for (Cycle t = 0; t < 50; ++t) core.step(t, t + 1);
  // The store retired long before its 300-cycle memory time.
  EXPECT_GT(core.stats().retired, 40U);
  EXPECT_EQ(core.stats().stores, 1U);
  ASSERT_EQ(mem.data_reqs.size(), 1U);
  EXPECT_TRUE(mem.data_reqs[0].write);
}

TEST(Core, MispredictStallsFetch) {
  std::vector<trace::Instr> mispredicts(
      50, {trace::InstrKind::kBranch, 0, true});
  ScriptedStream stream(mispredicts);
  FlatMemory mem(1);
  Core core(0, small_cfg(), stream, mem);
  for (Cycle t = 0; t < 200; ++t) core.step(t, t + 1);
  // Every mispredict costs the 3-cycle penalty: ~1 branch per 3 cycles.
  EXPECT_EQ(core.stats().mispredicts, 50U);
  EXPECT_GE(core.stats().branches, 50U);
}

TEST(Core, InstructionFetchPerBlock) {
  ScriptedStream stream({});
  FlatMemory mem(1);
  CoreConfig cfg = small_cfg();
  Core core(0, cfg, stream, mem);
  for (Cycle t = 0; t < 100; ++t) core.step(t, t + 1);
  // One ifetch per 16 retired instructions (64 B / 4 B).
  const std::uint64_t expected = core.stats().retired / 16;
  EXPECT_NEAR(static_cast<double>(mem.ifetches.size()),
              static_cast<double>(expected), 3.0);
}

TEST(Core, SlowIfetchThrottlesDispatch) {
  ScriptedStream fast_stream({});
  ScriptedStream slow_stream({});
  FlatMemory fast_mem(1);
  FlatMemory slow_mem(1);
  slow_mem.ifetch_latency = 20;
  Core fast(0, small_cfg(), fast_stream, fast_mem);
  Core slow(0, small_cfg(), slow_stream, slow_mem);
  for (Cycle t = 0; t < 500; ++t) {
    fast.step(t, t + 1);
    slow.step(t, t + 1);
  }
  EXPECT_LT(slow.stats().retired, fast.stats().retired / 2);
}

TEST(Core, EventSkipEquivalentToPerCycleStepping) {
  // The contract behind CmpSystem::run: a core free-running to the end
  // of its window — step(t, end), called only at the wake cycles it
  // returns, parking at every miss — must produce exactly the same
  // retirement, memory-request trace and stall statistics as stepping
  // it one cycle at a time with step(t, t + 1).  The script mixes long
  // loads (ROB/LSQ back-pressure), stores, mispredicting branches
  // (fetch stalls) and computes.
  Rng rng(Rng::derive_seed("core-skip-equiv"));
  std::vector<trace::Instr> script;
  for (int i = 0; i < 20'000; ++i) {
    const double u = rng.uniform();
    trace::Instr in;
    if (u < 0.30) {
      in.kind = trace::InstrKind::kLoad;
      in.addr = rng.below(1 << 20) << 6;
    } else if (u < 0.40) {
      in.kind = trace::InstrKind::kStore;
      in.addr = rng.below(1 << 20) << 6;
    } else if (u < 0.55) {
      in.kind = trace::InstrKind::kBranch;
      in.mispredict = rng.chance(0.05);
    }  // else compute
    script.push_back(in);
  }

  ScriptedStream ref_stream(script);
  ScriptedStream skip_stream(script);
  FlatMemory ref_mem(150);
  FlatMemory skip_mem(150);
  ref_mem.ifetch_latency = skip_mem.ifetch_latency = 8;
  Core ref(0, small_cfg(), ref_stream, ref_mem);
  Core skip(0, small_cfg(), skip_stream, skip_mem);

  constexpr Cycle kWindow = 60'000;
  constexpr Cycle kReset = 30'000;  // mid-run measurement-window reset
  Cycle wake = 0;
  std::uint64_t skip_steps = 0;
  for (Cycle t = 0; t < kWindow; ++t) {
    if (t == kReset) {
      // Window boundary: both drivers pass the boundary cycle, so the
      // pre-reset part of an in-flight stall is settled into the
      // discarded window and the remainder lands in the new one.
      ref.reset_stats(kReset);
      skip.reset_stats(kReset);
    }
    ref.step(t, t + 1);  // per-cycle reference: ignore the wake hint
    if (wake <= t) {
      // Free-run to the end of the current window, as CmpSystem::run
      // does: the reset splits the run into two windows.
      wake = skip.step(t, t < kReset ? kReset : kWindow);
      ASSERT_GT(wake, t);
      ++skip_steps;
    }
  }
  // Close the stall-accounting window, as CmpSystem::run does at the end
  // of every run() — a core asleep through the tail still gets its
  // in-window stall cycles charged, and none beyond the window.
  ref.settle_stall(kWindow);
  skip.settle_stall(kWindow);

  EXPECT_EQ(ref.stats().retired, skip.stats().retired);
  EXPECT_EQ(ref.stats().loads, skip.stats().loads);
  EXPECT_EQ(ref.stats().stores, skip.stats().stores);
  EXPECT_EQ(ref.stats().branches, skip.stats().branches);
  EXPECT_EQ(ref.stats().mispredicts, skip.stats().mispredicts);
  EXPECT_EQ(ref.stats().ifetch_blocks, skip.stats().ifetch_blocks);
  EXPECT_EQ(ref.stats().rob_full_cycles, skip.stats().rob_full_cycles);
  EXPECT_EQ(ref.stats().lsq_full_cycles, skip.stats().lsq_full_cycles);

  // The memory systems must have seen identical request traces at
  // identical cycles — the property CmpSystem's shared bus/DRAM need.
  ASSERT_EQ(ref_mem.data_reqs.size(), skip_mem.data_reqs.size());
  for (std::size_t i = 0; i < ref_mem.data_reqs.size(); ++i) {
    EXPECT_EQ(ref_mem.data_reqs[i].addr, skip_mem.data_reqs[i].addr);
    EXPECT_EQ(ref_mem.data_reqs[i].write, skip_mem.data_reqs[i].write);
    EXPECT_EQ(ref_mem.data_reqs[i].at, skip_mem.data_reqs[i].at);
  }
  ASSERT_EQ(ref_mem.ifetches.size(), skip_mem.ifetches.size());
  for (std::size_t i = 0; i < ref_mem.ifetches.size(); ++i) {
    EXPECT_EQ(ref_mem.ifetches[i].at, skip_mem.ifetches[i].at);
  }

  // And the skipping must actually skip: long-load back-pressure makes
  // most cycles no-ops for this script.
  EXPECT_LT(skip_steps, kWindow / 2);
}

TEST(Core, IpcZeroWindow) {
  ScriptedStream stream({});
  FlatMemory mem(1);
  Core core(0, small_cfg(), stream, mem);
  EXPECT_DOUBLE_EQ(core.ipc(0), 0.0);
}

TEST(Core, ResetStatsClearsCounts) {
  ScriptedStream stream({});
  FlatMemory mem(1);
  Core core(0, small_cfg(), stream, mem);
  for (Cycle t = 0; t < 10; ++t) core.step(t, t + 1);
  core.reset_stats();
  EXPECT_EQ(core.stats().retired, 0U);
}

}  // namespace
}  // namespace snug::cpu
