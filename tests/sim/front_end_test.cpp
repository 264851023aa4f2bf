// The pipelined front end (sim/front_end.hpp) must be invisible in the
// results: a lane hands its core exactly the stream a bare
// SyntheticStream would, however the consumer's reads are cut and
// whoever made the batches; machines run concurrently on several
// threads (one helper serving them all) equal the same machines run one
// at a time; lookahead left in the rings between two run() calls is
// consumed first, so run(a) then run(b) equals run(a + b); a machine
// may be destroyed with full rings, right after run(), or without ever
// running; save_warm_state() refuses a machine that has run; and a
// forked child, which has no helper, self-serves to the parent's
// results.
#include "sim/front_end.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sim/system.hpp"
#include "trace/profile.hpp"

namespace snug::sim {
namespace {

trace::StreamConfig stream_config(std::uint64_t seed) {
  trace::StreamConfig cfg;
  cfg.num_sets = 1024;
  cfg.line_bytes = 64;
  cfg.addr_base = static_cast<Addr>(seed) << 40;
  cfg.phase_period_refs = 20'000;  // several phase changes per test
  cfg.stream_seed = seed;
  return cfg;
}

RunScale small_scale() {
  RunScale scale;
  scale.warmup_cycles = 30'000;
  scale.measure_cycles = 40'000;
  scale.phase_period_refs = 20'000;
  return scale;
}

struct MachineSpec {
  schemes::SchemeSpec scheme;
  trace::WorkloadCombo combo;
};

/// Six 4-core machines: L2P, CC, DSR and SNUG over two mixes.
std::vector<MachineSpec> six_machines() {
  const trace::WorkloadCombo mix_a{
      "fe-a", 3, {"ammp", "parser", "gzip", "mesa"}};
  const trace::WorkloadCombo mix_b{
      "fe-b", 1, {"mcf", "bzip2", "vpr", "ammp"}};
  return {
      {{schemes::SchemeKind::kL2P, 0.0}, mix_a},
      {{schemes::SchemeKind::kCC, 0.25}, mix_a},
      {{schemes::SchemeKind::kDSR, 0.0}, mix_a},
      {{schemes::SchemeKind::kSNUG, 0.0}, mix_a},
      {{schemes::SchemeKind::kCC, 1.0}, mix_b},
      {{schemes::SchemeKind::kSNUG, 0.0}, mix_b},
  };
}

struct Outcome {
  std::vector<double> ipc;
  std::string counters;
  Cycle now = 0;
  bool operator==(const Outcome&) const = default;
};

Outcome outcome_of(const CmpSystem& sys) {
  return {sys.measured_ipc(),
          stats::render_counter_report(sys.counter_report()), sys.now()};
}

/// Warm-up window, then the measured window.
Outcome simulate(const MachineSpec& m) {
  const RunScale scale = small_scale();
  CmpSystem sys(paper_system_config(), m.scheme, m.combo, scale);
  sys.run(scale.warmup_cycles);
  sys.begin_measurement();
  sys.run(scale.measure_cycles);
  return outcome_of(sys);
}

/// Batches buffered across the first `lanes` lanes of `fe`.
std::uint64_t buffered(FrontEnd& fe, std::size_t lanes) {
  std::uint64_t total = 0;
  for (CoreId c = 0; c < lanes; ++c) total += fe.lane(c).buffered();
  return total;
}

/// Attaches `fe` to the helper until every lane holds a full ring, as
/// run() would have left it had it lasted longer.  False on a timeout.
bool fill_lookahead(FrontEnd& fe, std::size_t lanes) {
  const FrontEnd::Attached attached(fe);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  for (;;) {
    if (buffered(fe, lanes) == lanes * Lookahead::kDepth) return true;
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(FrontEnd, LaneHandsOutTheBareStreamUnderAnyReadSizes) {
  const char* names[] = {"mcf", "gzip"};
  std::vector<std::unique_ptr<trace::SyntheticStream>> sources;
  std::vector<std::unique_ptr<trace::SyntheticStream>> reference;
  for (std::uint64_t c = 0; c < 2; ++c) {
    const trace::BenchmarkProfile& prof = trace::profile_for(names[c]);
    sources.push_back(
        std::make_unique<trace::SyntheticStream>(prof, stream_config(c)));
    reference.push_back(
        std::make_unique<trace::SyntheticStream>(prof, stream_config(c)));
  }
  FrontEnd fe(sources);
  const FrontEnd::Attached attached(fe);
  constexpr std::size_t kTotal = 200'000;
  for (std::size_t c = 0; c < 2; ++c) {
    std::vector<std::uint8_t> got_code(kTotal);
    std::vector<Addr> got_addr(kTotal);
    std::size_t pos = 0;
    for (std::size_t i = 0; pos < kTotal; ++i) {
      // Reads of 1..64 instructions that straddle ring batches.
      const std::size_t want = std::min<std::size_t>(1 + (i * 37) % 64,
                                                     kTotal - pos);
      const std::size_t n =
          fe.lane(c).fill_batch(&got_code[pos], &got_addr[pos], want);
      ASSERT_GE(n, 1u);
      ASSERT_LE(n, want);
      pos += n;
    }
    std::vector<std::uint8_t> want_code(kTotal);
    std::vector<Addr> want_addr(kTotal);
    reference[c]->fill_batch(want_code.data(), want_addr.data(), kTotal);
    for (std::size_t i = 0; i < kTotal; ++i) {
      ASSERT_EQ(got_code[i], want_code[i]) << "lane " << c << " @" << i;
      if ((want_code[i] >> 1) == 1) {  // addresses of loads/stores only
        ASSERT_EQ(got_addr[i], want_addr[i]) << "lane " << c << " @" << i;
      }
    }
  }
}

TEST(FrontEnd, ConcurrentMachinesEqualTheSameMachinesRunAlone) {
  const std::vector<MachineSpec> specs = six_machines();
  std::vector<Outcome> alone;
  for (const MachineSpec& m : specs) alone.push_back(simulate(m));

  std::vector<Outcome> together(specs.size());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < specs.size(); i += 3) {
        together[i] = simulate(specs[i]);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(specs[i].scheme.id() + " on " + specs[i].combo.name);
    EXPECT_EQ(together[i].ipc, alone[i].ipc);  // bit-identical, not close
    EXPECT_EQ(together[i].counters, alone[i].counters);
    EXPECT_EQ(together[i].now, alone[i].now);
  }
}

TEST(FrontEnd, LookaheadBufferedBetweenRunsIsConsumedFirst) {
  for (const MachineSpec& m : six_machines()) {
    SCOPED_TRACE(m.scheme.id() + " on " + m.combo.name);
    for (const Cycle a : {Cycle{1}, Cycle{12'345}, Cycle{40'000}}) {
      constexpr Cycle kTotal = 70'000;
      CmpSystem split(paper_system_config(), m.scheme, m.combo,
                      small_scale());
      split.run(a);
      ASSERT_TRUE(fill_lookahead(split.front_end(), 4));
      split.run(kTotal - a);

      CmpSystem whole(paper_system_config(), m.scheme, m.combo,
                      small_scale());
      whole.run(kTotal);
      EXPECT_EQ(outcome_of(split), outcome_of(whole)) << "split at " << a;
    }
  }
}

TEST(FrontEnd, MachinesDieCleanlyFullRingsRightAfterRunOrNeverRun) {
  const MachineSpec m = six_machines()[3];
  {
    CmpSystem never_ran(paper_system_config(), m.scheme, m.combo,
                        small_scale());
  }
  {
    CmpSystem full(paper_system_config(), m.scheme, m.combo, small_scale());
    full.run(5'000);
    ASSERT_TRUE(fill_lookahead(full.front_end(), 4));
  }
  // Destroyed the moment run() returns, while the helper is busiest
  // with this machine's rings.
  for (int i = 0; i < 32; ++i) {
    CmpSystem sys(paper_system_config(), m.scheme, m.combo, small_scale());
    sys.run(static_cast<Cycle>(1'000 + 97 * i));
  }
}

TEST(FrontEndDeathTest, SaveWarmStateAfterRunDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const MachineSpec m = six_machines()[3];
  RunScale scale = small_scale();
  scale.warmup_mode = WarmupMode::kFunctional;
  EXPECT_DEATH(
      {
        CmpSystem sys(paper_system_config(), m.scheme, m.combo, scale);
        sys.warm_functional(scale.warmup_cycles);
        sys.run(1'000);
        (void)sys.save_warm_state();
      },
      "save_warm_state\\(\\) after run\\(\\)");
}

TEST(FrontEnd, ForkedChildWithoutHelperSelfServesToTheSameResults) {
  const MachineSpec m = six_machines()[3];
  const Outcome parent = simulate(m);  // the helper runs in this process
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: fork copied only this thread, so no helper fills the
    // rings — every batch is self-served.  Exit codes report back.
    const RunScale scale = small_scale();
    CmpSystem sys(paper_system_config(), m.scheme, m.combo, scale);
    sys.run(scale.warmup_cycles);
    const bool drained = buffered(sys.front_end(), 4) == 0;
    sys.begin_measurement();
    sys.run(scale.measure_cycles);
    const bool same = outcome_of(sys) == parent;
    ::_exit(same ? (drained ? 0 : 2) : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_NE(WEXITSTATUS(status), 1) << "child results differ from the parent's";
  EXPECT_NE(WEXITSTATUS(status), 2) << "something filled the child's rings";
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace snug::sim
