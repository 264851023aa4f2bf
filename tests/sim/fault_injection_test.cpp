// ISSUE 8 fault-injection suite: the deterministic fault seam
// (common/fault.hpp) and the recovery behaviour it forces out of the
// stores and the campaign engine — short writes, poisoned reads and
// torn renames self-heal, injected transient task failures retry, a
// seeded faulty campaign is bit-identical to a clean one, a failure
// thrown inside a parallel worker reaches the caller, and a crash clause
// ends the process at a task start fixed by the plan.
#include "common/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "sim/campaign.hpp"
#include "sim/runner.hpp"
#include "sim/warm_state.hpp"

namespace snug {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  explicit TempDir(const char* name) {
    dir = fs::temp_directory_path() / name;
    fs::remove_all(dir);
  }
  ~TempDir() { fs::remove_all(dir); }
  fs::path dir;
};

// ---- plan grammar ------------------------------------------------------

TEST(FaultPlan, ParsesClausesSeedAndKeys) {
  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(fault::FaultPlan::parse(
      "seed=7; short-write@write:p=0.25; "
      "fail@task:match=mixA/SNUG,first=2; stall@read:ms=5,every=3",
      plan, error))
      << error;
  EXPECT_EQ(plan.seed, 7u);
  ASSERT_EQ(plan.clauses.size(), 3u);
  EXPECT_EQ(plan.clauses[0].kind, fault::Kind::kShortWrite);
  EXPECT_EQ(plan.clauses[0].op, fault::Op::kWrite);
  EXPECT_DOUBLE_EQ(plan.clauses[0].prob, 0.25);
  EXPECT_EQ(plan.clauses[1].kind, fault::Kind::kFail);
  EXPECT_EQ(plan.clauses[1].op, fault::Op::kTask);
  EXPECT_EQ(plan.clauses[1].match, "mixA/SNUG");
  EXPECT_EQ(plan.clauses[1].first, 2u);
  EXPECT_EQ(plan.clauses[2].stall_ms, 5u);
  EXPECT_EQ(plan.clauses[2].every, 3u);
  // The summary round-trips through the parser.
  fault::FaultPlan again;
  ASSERT_TRUE(fault::FaultPlan::parse(plan.summary(), again, error))
      << plan.summary() << ": " << error;
  EXPECT_EQ(again.summary(), plan.summary());
}

TEST(FaultPlan, RetiredSupervisionOpsAreRejected) {
  fault::FaultPlan plan;
  std::string error;
  // The service runs each cell once and has no lease grants or
  // heartbeats to fault: their ops are unknown to the grammar.
  EXPECT_FALSE(fault::FaultPlan::parse("fail@lease", plan, error));
  EXPECT_NE(error.find("lease"), std::string::npos) << error;
  EXPECT_FALSE(fault::FaultPlan::parse("stall@heartbeat:ms=3", plan, error));
  EXPECT_NE(error.find("heartbeat"), std::string::npos) << error;
}

TEST(FaultPlan, RejectsBadClausesWithNamedErrors) {
  fault::FaultPlan plan;
  std::string error;
  EXPECT_FALSE(fault::FaultPlan::parse("melt@write", plan, error));
  EXPECT_NE(error.find("melt@write"), std::string::npos) << error;
  EXPECT_FALSE(fault::FaultPlan::parse("short-write@read", plan, error));
  EXPECT_FALSE(fault::FaultPlan::parse("torn-rename@write", plan, error));
  EXPECT_FALSE(fault::FaultPlan::parse("stall@write", plan, error))
      << "stall requires ms=";
  EXPECT_FALSE(fault::FaultPlan::parse("bit-flip@write:p=2.0", plan,
                                       error));
  EXPECT_FALSE(fault::FaultPlan::parse("bit-flip@write:p=nope", plan,
                                       error));
}

TEST(FaultPlan, CrashClauseParsesOnTaskOnlyWithAfterAndMatch) {
  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(fault::FaultPlan::parse(
      "seed=3; crash@task:after=4; crash@task:match=mixA", plan, error))
      << error;
  ASSERT_EQ(plan.clauses.size(), 2u);
  EXPECT_EQ(plan.clauses[0].kind, fault::Kind::kCrash);
  EXPECT_EQ(plan.clauses[0].op, fault::Op::kTask);
  EXPECT_EQ(plan.clauses[0].after, 4u);
  EXPECT_EQ(plan.clauses[1].after, 0u) << "default: the first task start";
  fault::FaultPlan again;
  ASSERT_TRUE(fault::FaultPlan::parse(plan.summary(), again, error))
      << plan.summary() << ": " << error;
  EXPECT_EQ(again.summary(), plan.summary());

  EXPECT_FALSE(fault::FaultPlan::parse("crash@write", plan, error));
  EXPECT_FALSE(fault::FaultPlan::parse("crash@task:first=2", plan, error));
  EXPECT_NE(error.find("after="), std::string::npos) << error;
  EXPECT_FALSE(fault::FaultPlan::parse("fail@task:after=2", plan, error));
  EXPECT_NE(error.find("crash"), std::string::npos) << error;
  EXPECT_FALSE(fault::FaultPlan::parse("crash@task:after=x", plan, error));
}

TEST(FaultPlanDeathTest, CrashExitsAtTheStartAfterNCountedAcrossCells) {
  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(fault::FaultPlan::parse("crash@task:after=3", plan, error))
      << error;
  // Three task starts of three different cells survive; the fourth
  // start ends the process as kill -9 would, before the cell runs.
  EXPECT_EXIT(
      {
        const fault::ScopedFaultPlan scoped(plan);
        fault::maybe_fail_task("mixA/SNUG");
        fault::maybe_fail_task("mixB/SNUG");
        fault::maybe_fail_task("mixA/DSR");
        std::fprintf(stderr, "three starts survived\n");
        fault::maybe_fail_task("mixC/SNUG");
        std::fprintf(stderr, "fourth start survived\n");
        std::exit(0);
      },
      ::testing::ExitedWithCode(137),
      "three starts survived.*crash@task at the start of mixC/SNUG");
}

TEST(FaultPlan, RejectsAnEmptyPlanAndReportsNoInstallation) {
  fault::FaultPlan plan;
  std::string error;
  EXPECT_FALSE(fault::FaultPlan::parse("", plan, error));
  EXPECT_NE(error.find("no clauses"), std::string::npos) << error;
  EXPECT_FALSE(fault::plan_installed());
  EXPECT_EQ(fault::installed_stats().total(), 0u);
}

// ---- deterministic injection through the Env seam ----------------------

TEST(FaultEnv, ShortWriteIsSilentAndSeedDeterministic) {
  TempDir tmp("snug_fault_env_test");
  fs::create_directories(tmp.dir);
  const std::string path = (tmp.dir / "victim.bin").string();
  const std::string payload(1000, 'x');

  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(fault::FaultPlan::parse("seed=9; short-write@write:p=1",
                                      plan, error));
  std::uintmax_t torn_size = 0;
  {
    fault::ScopedFaultPlan scoped(plan);
    // The writer is told the write succeeded — that is the point.
    EXPECT_TRUE(fault::env().write_file(
      path, reinterpret_cast<const std::byte*>(payload.data()),
                                        payload.size()));
    EXPECT_EQ(scoped.stats().short_writes, 1u);
    torn_size = fs::file_size(path);
    EXPECT_LT(torn_size, payload.size());
  }
  // Same seed, same key, same occurrence → the same torn length.
  fs::remove(path);
  {
    fault::ScopedFaultPlan scoped(plan);
    EXPECT_TRUE(fault::env().write_file(
      path, reinterpret_cast<const std::byte*>(payload.data()),
                                        payload.size()));
    EXPECT_EQ(fs::file_size(path), torn_size);
  }
  // Plan uninstalled: writes are whole again.
  EXPECT_TRUE(fault::env().write_file(
      path, reinterpret_cast<const std::byte*>(payload.data()),
                                      payload.size()));
  EXPECT_EQ(fs::file_size(path), payload.size());
}

// Publish temps carry the writer's pid and sequence, which differ in
// every run; decisions key on the `<target>.tmp` stem, so a plan tears
// the same publishes of a target wherever and whenever they happen.
TEST(FaultEnv, PublishTempsOfOneTargetFaultAlikeAcrossWriters) {
  TempDir tmp("snug_fault_env_temp_key");
  fs::create_directories(tmp.dir);
  const std::string target = (tmp.dir / "x").string();
  const std::string payload(1000, 'x');
  const auto* bytes = reinterpret_cast<const std::byte*>(payload.data());

  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(fault::FaultPlan::parse("seed=3; short-write@write:p=0.5",
                                      plan, error));
  // Eight successive publishes of `target`, as one writer (pid 100) and
  // then another (pid 200, seq offset by 7) would name their temps.
  const auto publish_sizes = [&](long pid, int seq0) {
    std::vector<std::uintmax_t> sizes;
    fault::ScopedFaultPlan scoped(plan);
    for (int i = 0; i < 8; ++i) {
      const std::string temp = target + ".tmp." + std::to_string(pid) +
                               "." + std::to_string(seq0 + i);
      EXPECT_TRUE(fault::env().write_file(temp, bytes, payload.size()));
      sizes.push_back(fs::file_size(temp));
    }
    return sizes;
  };
  const std::vector<std::uintmax_t> first = publish_sizes(100, 0);
  const std::vector<std::uintmax_t> second = publish_sizes(200, 7);
  EXPECT_EQ(first, second);
  EXPECT_NE(std::count(first.begin(), first.end(), payload.size()), 8)
      << "the plan must tear some publish";
  EXPECT_NE(std::count(first.begin(), first.end(), payload.size()), 0)
      << "and, at p=0.5, leave some whole";
}

// ---- store self-healing under injected faults --------------------------

TEST(FaultInjection, EvalCacheHealsShortWrittenEntry) {
  TempDir tmp("snug_fault_cache_short_write");
  const std::vector<double> ipc{1.0, 2.0, 3.0, 4.0};

  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(fault::FaultPlan::parse("seed=11; short-write@write:p=1",
                                      plan, error));
  {
    fault::ScopedFaultPlan scoped(plan);
    // Built under the plan so the cache resolves the faulty Env.
    const sim::EvalCache cache(tmp.dir.string());
    cache.store("cell", 77, ipc);
  }

  // The torn entry is detected, quarantined (never deleted) and healed
  // by the rewrite.
  const sim::EvalCache cache(tmp.dir.string());
  std::vector<double> out;
  EXPECT_FALSE(cache.load("cell", 77, out));
  EXPECT_EQ(cache.recovery().quarantined, 1u);
  EXPECT_TRUE(fs::exists(tmp.dir / "quarantine"));
  cache.store("cell", 77, ipc);
  ASSERT_TRUE(cache.load("cell", 77, out));
  EXPECT_EQ(out, ipc);
}

TEST(FaultInjection, EvalCachePoisonedReadFallsBackToRecompute) {
  TempDir tmp("snug_fault_cache_bit_flip");
  const std::vector<double> ipc{0.5, 0.25};
  {
    const sim::EvalCache cache(tmp.dir.string());
    cache.store("cell", 5, ipc);
  }

  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(fault::FaultPlan::parse("seed=2; bit-flip@read:p=1", plan,
                                      error));
  {
    fault::ScopedFaultPlan scoped(plan);
    const sim::EvalCache cache(tmp.dir.string());
    std::vector<double> out;
    // Every read is poisoned; the CRC rejects the bytes and the caller
    // falls back to simulation (a cache miss, not a crash).
    EXPECT_FALSE(cache.load("cell", 5, out));
    EXPECT_GE(scoped.stats().bit_flips, 1u);
  }
}

TEST(FaultInjection, TornRenameNeverExposesAPartialEntry) {
  TempDir tmp("snug_fault_cache_torn_rename");
  const std::vector<double> ipc{9.0};

  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(fault::FaultPlan::parse("seed=4; torn-rename@rename:p=1",
                                      plan, error));
  {
    fault::ScopedFaultPlan scoped(plan);
    const sim::EvalCache cache(tmp.dir.string());
    cache.store("cell", 1, ipc);  // publish rename suppressed
    EXPECT_EQ(scoped.stats().torn_renames, 1u);
    std::vector<double> out;
    // The entry simply never appeared — a clean miss, no torn bytes.
    EXPECT_FALSE(cache.load("cell", 1, out));
  }
  const sim::EvalCache cache(tmp.dir.string());
  EXPECT_EQ(cache.recovery().quarantined, 0u);
  std::vector<double> out;
  EXPECT_FALSE(cache.load("cell", 1, out));
  cache.store("cell", 1, ipc);
  EXPECT_TRUE(cache.load("cell", 1, out));
}

TEST(FaultInjection, WarmStateBankHealsShortWrittenCheckpoint) {
  TempDir tmp("snug_fault_bank_short_write");
  std::vector<std::byte> blob(256);
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<std::byte>(i);
  }

  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(fault::FaultPlan::parse("seed=6; short-write@write:p=1",
                                      plan, error));
  {
    fault::ScopedFaultPlan scoped(plan);
    const sim::WarmStateBank bank(tmp.dir.string());
    bank.store("warm", 13, blob);
  }

  const sim::WarmStateBank bank(tmp.dir.string());
  std::vector<std::byte> out;
  EXPECT_FALSE(bank.load("warm", 13, out));
  EXPECT_EQ(bank.recovery().quarantined, 1u);
  bank.store("warm", 13, blob);
  ASSERT_TRUE(bank.load("warm", 13, out));
  EXPECT_EQ(out, blob);
}

// ---- the ISSUE 8 acceptance property -----------------------------------
// A campaign under a seeded fault plan — transient task failures plus
// store chaos — produces bit-identical results to a fault-free run.

void expect_identical(const sim::CampaignResults& a,
                      const sim::CampaignResults& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [combo, combo_results] : a) {
    const auto it = b.find(combo);
    ASSERT_NE(it, b.end()) << combo;
    ASSERT_EQ(combo_results.size(), it->second.size());
    for (const auto& [scheme, result] : combo_results) {
      const auto& other = it->second.at(scheme);
      ASSERT_EQ(result.ipc.size(), other.ipc.size());
      for (std::size_t i = 0; i < result.ipc.size(); ++i) {
        EXPECT_EQ(result.ipc[i], other.ipc[i])
            << combo << "/" << scheme << " core " << i;
      }
    }
  }
}

sim::CampaignSpec small_grid() {
  sim::CampaignSpec spec = sim::CampaignSpec::grid(
      {
          {"mixA", 3, {"gzip", "mesa", "gzip", "mesa"}},
          {"mixB", 5, {"ammp", "gzip", "mesa", "ammp"}},
      },
      {{schemes::SchemeKind::kL2P, 0.0},
       {schemes::SchemeKind::kCC, 0.5},
       {schemes::SchemeKind::kSNUG, 0.0}});
  spec.scenario.scale.warmup_cycles = 10'000;
  spec.scenario.scale.measure_cycles = 40'000;
  spec.scenario.scale.phase_period_refs = 50'000;
  return spec;
}

TEST(FaultInjection, FaultedCampaignIsBitIdenticalToCleanRun) {
  const sim::CampaignSpec spec = small_grid();

  sim::ExperimentRunner clean_runner(spec.scenario, "");
  sim::CampaignEngine clean(clean_runner, 2);
  const sim::CampaignResults a = clean.run(spec);

  TempDir tmp("snug_faulted_campaign_cache");
  fault::FaultPlan plan;
  std::string error;
  // first=1 on fail@task: every cell's FIRST attempt throws an injected
  // TransientError and every retry succeeds — the retry count is exact,
  // not probabilistic.  The store faults exercise the cache recovery
  // paths mid-campaign.
  ASSERT_TRUE(fault::FaultPlan::parse(
      "seed=3; fail@task:first=1; short-write@write:p=0.4; "
      "bit-flip@read:p=0.4",
      plan, error))
      << error;
  fault::ScopedFaultPlan scoped(plan);
  sim::ExperimentRunner faulty_runner(spec.scenario, tmp.dir.string());
  sim::CampaignEngine faulty(faulty_runner, 2);
  faulty.retry.max_attempts = 3;
  faulty.retry.backoff_ms = 1;
  const sim::CampaignResults b = faulty.run(spec);

  expect_identical(a, b);
  EXPECT_EQ(faulty.stats().retries, spec.size());
  EXPECT_EQ(scoped.stats().task_failures, spec.size());
}

TEST(FaultInjection, RetryGivesUpAfterMaxAttempts) {
  const sim::CampaignSpec spec = small_grid();
  fault::FaultPlan plan;
  std::string error;
  // One cell fails on every attempt, forever.
  ASSERT_TRUE(fault::FaultPlan::parse("seed=1; fail@task:match=mixB/SNUG",
                                      plan, error))
      << error;
  fault::ScopedFaultPlan scoped(plan);
  sim::ExperimentRunner runner(spec.scenario, "");
  sim::CampaignEngine engine(runner, 1);
  engine.retry.max_attempts = 2;
  engine.retry.backoff_ms = 1;
  EXPECT_THROW((void)engine.run(spec), fault::TransientError);
  EXPECT_EQ(scoped.stats().task_failures, 2u);  // attempts, then give up
}

TEST(FaultInjection, ParallelWorkerFailureReachesTheCaller) {
  const sim::CampaignSpec spec = small_grid();
  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(fault::FaultPlan::parse("seed=1; fail@task:match=mixA/SNUG",
                                      plan, error))
      << error;
  fault::ScopedFaultPlan scoped(plan);
  sim::ExperimentRunner runner(spec.scenario, "");
  sim::CampaignEngine engine(runner, 4);
  engine.retry.max_attempts = 1;
  // The failing cell runs on a worker thread; its error must be
  // rethrown on the calling thread once every worker has joined.
  EXPECT_THROW((void)engine.run(spec), fault::TransientError);
  EXPECT_EQ(scoped.stats().task_failures, 1u);
}

}  // namespace
}  // namespace snug
