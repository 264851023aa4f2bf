// EvalCache binary-format tests: round trips, atomicity hygiene, and —
// the satellite fix of ISSUE 1 — rejection of truncated, corrupted,
// version-mismatched and stale entries instead of silently returning a
// partial IPC vector.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "schemes/factory.hpp"
#include "sim/runner.hpp"
#include "sim/store_recovery.hpp"
#include "trace/workloads.hpp"

namespace snug::sim {
namespace {

struct TempCacheDir {
  TempCacheDir() {
    dir = std::filesystem::temp_directory_path() / "snug_eval_cache_test";
    std::filesystem::remove_all(dir);
  }
  ~TempCacheDir() { std::filesystem::remove_all(dir); }
  std::filesystem::path dir;
};

std::filesystem::path entry_file(const TempCacheDir& tmp,
                                 const std::string& key) {
  return tmp.dir / (key + ".snugc");
}

TEST(EvalCache, RoundTripsExactBits) {
  TempCacheDir tmp;
  EvalCache cache(tmp.dir.string());
  const std::vector<double> ipc{1.2345678901234567, 0.000001, 3.25, 7e-12};
  cache.store("k", 42, ipc);

  std::vector<double> loaded;
  ASSERT_TRUE(cache.load("k", 42, loaded));
  ASSERT_EQ(loaded.size(), ipc.size());
  for (std::size_t i = 0; i < ipc.size(); ++i) {
    EXPECT_EQ(loaded[i], ipc[i]);  // binary format: no text rounding
  }
}

TEST(EvalCache, MissingEntryMisses) {
  TempCacheDir tmp;
  EvalCache cache(tmp.dir.string());
  std::vector<double> ipc;
  EXPECT_FALSE(cache.load("absent", 1, ipc));
}

TEST(EvalCache, RejectsFingerprintMismatch) {
  TempCacheDir tmp;
  EvalCache cache(tmp.dir.string());
  cache.store("k", 42, {1.0, 2.0});
  std::vector<double> ipc;
  EXPECT_FALSE(cache.load("k", 43, ipc));  // stale config/scale/scheme
  EXPECT_TRUE(cache.load("k", 42, ipc));
}

TEST(EvalCache, RejectsTruncatedEntry) {
  TempCacheDir tmp;
  EvalCache cache(tmp.dir.string());
  cache.store("k", 42, {1.0, 2.0, 3.0, 4.0});

  // Chop the payload mid-double, as a torn write would.
  const auto path = entry_file(tmp, "k");
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - 12);

  std::vector<double> ipc;
  EXPECT_FALSE(cache.load("k", 42, ipc));
  EXPECT_TRUE(ipc.empty());  // nothing partial leaks out
}

TEST(EvalCache, RejectsHeaderOnlyOrEmptyFile) {
  TempCacheDir tmp;
  EvalCache cache(tmp.dir.string());
  {
    std::ofstream out(entry_file(tmp, "empty"), std::ios::binary);
  }
  cache.store("k", 42, {1.0});
  std::filesystem::resize_file(entry_file(tmp, "k"), 24);  // header only

  std::vector<double> ipc;
  EXPECT_FALSE(cache.load("empty", 42, ipc));
  EXPECT_FALSE(cache.load("k", 42, ipc));
}

TEST(EvalCache, RejectsTrailingGarbage) {
  TempCacheDir tmp;
  EvalCache cache(tmp.dir.string());
  cache.store("k", 42, {1.0, 2.0});
  {
    std::ofstream out(entry_file(tmp, "k"),
                      std::ios::binary | std::ios::app);
    out << "junk";
  }
  std::vector<double> ipc;
  EXPECT_FALSE(cache.load("k", 42, ipc));
}

TEST(EvalCache, RejectsBadMagicAndVersion) {
  TempCacheDir tmp;
  EvalCache cache(tmp.dir.string());
  cache.store("k", 42, {1.0});

  const auto corrupt_u32_at = [&](std::streamoff off, std::uint32_t v) {
    std::fstream f(entry_file(tmp, "k"),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(off);
    f.write(reinterpret_cast<const char*>(&v), sizeof v);
  };

  std::vector<double> ipc;
  corrupt_u32_at(0, 0xDEADBEEF);  // magic
  EXPECT_FALSE(cache.load("k", 42, ipc));

  cache.store("k", 42, {1.0});
  corrupt_u32_at(4, EvalCache::kVersion + 1);  // future format version
  EXPECT_FALSE(cache.load("k", 42, ipc));

  cache.store("k", 42, {1.0});
  corrupt_u32_at(16, 0);  // count = 0
  EXPECT_FALSE(cache.load("k", 42, ipc));

  cache.store("k", 42, {1.0});
  corrupt_u32_at(16, EvalCache::kMaxEntries + 1);  // absurd count
  EXPECT_FALSE(cache.load("k", 42, ipc));
}

TEST(EvalCache, StoreLeavesNoTempFiles) {
  TempCacheDir tmp;
  EvalCache cache(tmp.dir.string());
  for (int i = 0; i < 8; ++i) {
    cache.store("k" + std::to_string(i), 42, {1.0, 2.0});
  }
  std::size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(tmp.dir)) {
    EXPECT_EQ(e.path().extension(), ".snugc") << e.path();
    ++files;
  }
  EXPECT_EQ(files, 8U);
}

TEST(EvalCache, ConcurrentWritersSameKeyStayConsistent) {
  TempCacheDir tmp;
  EvalCache cache(tmp.dir.string());
  const std::vector<double> ipc{1.0, 2.0, 3.0, 4.0};
  std::vector<std::thread> writers;
  writers.reserve(8);
  for (int t = 0; t < 8; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < 50; ++i) cache.store("k", 42, ipc);
    });
  }
  for (auto& w : writers) w.join();

  std::vector<double> loaded;
  ASSERT_TRUE(cache.load("k", 42, loaded));
  EXPECT_EQ(loaded, ipc);
}

TEST(EvalCache, RejectsPreScenarioFormatEntries) {
  // The scenario refactor bumped the entry format to v2 (fingerprints now
  // cover the full topology).  A well-formed v1 entry — as any
  // pre-refactor cache directory holds — must be rejected wholesale even
  // when its stored fingerprint happens to match.  Stale ≠ corrupt: the
  // legacy file must stay in place, not land in quarantine.
  ASSERT_GE(EvalCache::kVersion, 2U);
  TempCacheDir tmp;
  EvalCache cache(tmp.dir.string());

  const double payload[2] = {1.25, 0.75};
  struct V1Header {
    std::uint32_t magic = EvalCache::kMagic;
    std::uint32_t version = 1;  // pre-scenario format
    std::uint64_t fingerprint = 42;
    std::uint32_t count = 2;
    std::uint32_t payload_crc = 0;  // the v1-era reserved word
  } hdr;
  {
    std::ofstream out(entry_file(tmp, "legacy"), std::ios::binary);
    out.write(reinterpret_cast<const char*>(&hdr), sizeof hdr);
    out.write(reinterpret_cast<const char*>(payload), sizeof payload);
  }

  std::vector<double> ipc;
  EXPECT_FALSE(cache.load("legacy", 42, ipc));
  EXPECT_TRUE(ipc.empty());
  EXPECT_TRUE(std::filesystem::exists(entry_file(tmp, "legacy")));
  EXPECT_EQ(cache.recovery().quarantined, 0U);

  // The same bytes with the current version (and a correct v4 payload
  // CRC) load fine — the rejection above is the version check, nothing
  // else.
  hdr.version = EvalCache::kVersion;
  hdr.payload_crc = crc32c(payload, sizeof payload);
  {
    std::ofstream out(entry_file(tmp, "legacy"), std::ios::binary);
    out.write(reinterpret_cast<const char*>(&hdr), sizeof hdr);
    out.write(reinterpret_cast<const char*>(payload), sizeof payload);
  }
  EXPECT_TRUE(cache.load("legacy", 42, ipc));
}

TEST(EvalCache, RejectsFlippedPayloadBitViaCrc) {
  TempCacheDir tmp;
  EvalCache cache(tmp.dir.string());
  cache.store("k", 42, {1.0, 2.0, 3.0});

  // Flip one payload bit; header and size stay plausible, so only the
  // CRC can catch it.
  {
    std::fstream f(entry_file(tmp, "k"),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(24 + 5);
    char byte;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    f.seekp(24 + 5);
    f.write(&byte, 1);
  }
  std::vector<double> ipc;
  EXPECT_FALSE(cache.load("k", 42, ipc));
}

TEST(EvalCache, QuarantinesCorruptEntriesKeepsStaleOnes) {
  TempCacheDir tmp;
  EvalCache cache(tmp.dir.string());
  cache.store("torn", 42, {1.0, 2.0, 3.0, 4.0});
  cache.store("stale", 42, {5.0, 6.0});
  std::filesystem::resize_file(entry_file(tmp, "torn"), 36);  // mid-double

  std::vector<double> ipc;
  EXPECT_FALSE(cache.load("torn", 42, ipc));
  EXPECT_FALSE(cache.load("stale", 99, ipc));  // fingerprint miss: stale

  // The torn file moved aside (evidence, not deleted); the stale one is
  // untouched and still serves its own fingerprint.
  EXPECT_FALSE(std::filesystem::exists(entry_file(tmp, "torn")));
  std::size_t quarantined_files = 0;
  for (const auto& e :
       std::filesystem::directory_iterator(tmp.dir / "quarantine")) {
    EXPECT_NE(e.path().filename().string().find("torn.snugc"),
              std::string::npos);
    ++quarantined_files;
  }
  EXPECT_EQ(quarantined_files, 1U);
  EXPECT_EQ(cache.recovery().quarantined, 1U);
  EXPECT_TRUE(cache.load("stale", 42, ipc));

  // Degradation is recompute + rewrite: a fresh store of the torn key
  // fully heals the slot.
  cache.store("torn", 42, {1.0, 2.0, 3.0, 4.0});
  EXPECT_TRUE(cache.load("torn", 42, ipc));
  EXPECT_EQ(ipc.size(), 4U);
}

TEST(EvalCache, ReapsDeadWritersTempsOnOpen) {
  TempCacheDir tmp;
  {
    EvalCache cache(tmp.dir.string());
    cache.store("keep", 42, {1.0, 2.0});
  }
  // Plant what killed writers leave behind: temps owned by a dead pid
  // and a mangled name nobody will ever rename — plus one owned by a
  // live process (us), which must survive the reap.
  const auto plant = [&](const std::string& name) {
    std::ofstream out(tmp.dir / name, std::ios::binary);
    out << "partial";
  };
  plant("keep.snugc.tmp.999999999.7");
  plant("other.snugc.tmp.bogus.3");
  const std::string live =
      "live.snugc.tmp." + std::to_string(::getpid()) + ".1";
  plant(live);

  EvalCache reopened(tmp.dir.string());
  EXPECT_EQ(reopened.recovery().reaped_temps, 2U);
  EXPECT_FALSE(
      std::filesystem::exists(tmp.dir / "keep.snugc.tmp.999999999.7"));
  EXPECT_FALSE(std::filesystem::exists(tmp.dir / "other.snugc.tmp.bogus.3"));
  EXPECT_TRUE(std::filesystem::exists(tmp.dir / live));
  std::vector<double> ipc;
  EXPECT_TRUE(reopened.load("keep", 42, ipc));  // valid entries untouched
}

TEST(EvalCache, ContainsProbesHeaderWithoutQuarantining) {
  TempCacheDir tmp;
  EvalCache cache(tmp.dir.string());
  EXPECT_FALSE(cache.contains("k", 42));
  cache.store("k", 42, {1.0, 2.0});
  EXPECT_TRUE(cache.contains("k", 42));
  EXPECT_FALSE(cache.contains("k", 43)) << "fingerprint mismatch";
  EXPECT_FALSE(cache.contains("absent", 42));

  // A CRC-broken payload under an intact header still probes true —
  // contains() is the cheap admission check; load() makes the
  // structural call and quarantines.
  {
    std::fstream f(entry_file(tmp, "k"),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(24 + 3);
    char byte;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(24 + 3);
    f.write(&byte, 1);
  }
  EXPECT_TRUE(cache.contains("k", 42));
  EXPECT_EQ(cache.recovery().quarantined, 0u);
  std::vector<double> ipc;
  EXPECT_FALSE(cache.load("k", 42, ipc));
  EXPECT_EQ(cache.recovery().quarantined, 1u);
}

TEST(EvalCache, RefreshSeesEntriesPublishedByAnotherProcess) {
  TempCacheDir tmp;
  EvalCache reader(tmp.dir.string());
  EXPECT_EQ(reader.refresh(), 0u);

  // A genuinely separate process publishes entries into the directory
  // the reader already has open — the campaignd sharing scenario.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    EvalCache writer(tmp.dir.string());
    for (int i = 0; i < 5; ++i) {
      writer.store("shared" + std::to_string(i), 42,
                   {1.0 + i, 2.0 + i});
    }
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  EXPECT_EQ(reader.refresh(), 5u);
  std::vector<double> ipc;
  ASSERT_TRUE(reader.load("shared3", 42, ipc));
  EXPECT_EQ(ipc, (std::vector<double>{4.0, 5.0}));
}

TEST(EvalCache, CrossProcessReaderNeverObservesATornWrite) {
  TempCacheDir tmp;
  EvalCache reader(tmp.dir.string());
  const std::vector<double> a{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> b{9.0, 8.0, 7.0, 6.0};
  {
    EvalCache seed(tmp.dir.string());
    seed.store("k", 42, a);
  }

  // The child rewrites the same key as fast as it can, alternating two
  // payloads; the parent reads concurrently.  The atomic temp+rename
  // publish means every successful load is exactly A or exactly B —
  // never a mixture, never a CRC rejection.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    EvalCache writer(tmp.dir.string());
    for (int i = 0; i < 400; ++i) {
      writer.store("k", 42, (i % 2) != 0 ? b : a);
    }
    ::_exit(0);
  }
  std::size_t loads = 0;
  int status = 0;
  bool child_done = false;
  while (!child_done) {
    child_done = ::waitpid(pid, &status, WNOHANG) == pid;
    std::vector<double> ipc;
    ASSERT_TRUE(reader.load("k", 42, ipc)) << "after " << loads << " loads";
    EXPECT_TRUE(ipc == a || ipc == b) << "torn payload observed";
    ++loads;
  }
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_GT(loads, 0u);
  EXPECT_EQ(reader.recovery().quarantined, 0u);
}

TEST(EvalCache, QuarantineDirectoryIsBoundedOnOpen) {
  TempCacheDir tmp;
  {
    EvalCache cache(tmp.dir.string());
    cache.store("keep", 42, {1.0});
  }
  // A store that healed corruption for months: far more quarantined
  // evidence than kQuarantineCap.
  std::filesystem::create_directories(tmp.dir / "quarantine");
  for (std::size_t i = 0; i < kQuarantineCap + 20; ++i) {
    std::ofstream out(
        tmp.dir / "quarantine" /
        ("old" + std::to_string(1000 + i) + ".snugc.7.1"),
        std::ios::binary);
    out << "evidence";
  }

  EvalCache reopened(tmp.dir.string());
  EXPECT_EQ(reopened.recovery().quarantine_trimmed, 20u);
  std::size_t remaining = 0;
  for (const auto& e :
       std::filesystem::directory_iterator(tmp.dir / "quarantine")) {
    (void)e;
    ++remaining;
  }
  EXPECT_EQ(remaining, kQuarantineCap);
  std::vector<double> ipc;
  EXPECT_TRUE(reopened.load("keep", 42, ipc)) << "entries untouched";
}

TEST(EvalCache, RunFingerprintCoversFullTopology) {
  // The v5 config descriptor must move with every scenario-reachable
  // topology knob, including the ones the quad-core era ignored (L1I,
  // shared-L2 aggregate, core pipeline).
  const RunScale scale;
  const trace::WorkloadCombo combo{"t", 5, {"gzip", "mesa", "gzip", "mesa"}};
  const schemes::SchemeSpec snug{schemes::SchemeKind::kSNUG, 0.0};
  const SystemConfig base = paper_system_config();
  const std::uint64_t fp = run_fingerprint(base, scale, combo, snug);

  SystemConfig cfg = base;
  cfg.l1i = cache::CacheGeometry(64 << 10, 4, 64);
  EXPECT_NE(fp, run_fingerprint(cfg, scale, combo, snug));

  cfg = base;
  cfg.scheme_ctx.shared.l2 = cache::CacheGeometry(8 << 20, 16, 64);
  EXPECT_NE(fp, run_fingerprint(cfg, scale, combo, snug));

  cfg = base;
  cfg.core.issue_width = 4;
  EXPECT_NE(fp, run_fingerprint(cfg, scale, combo, snug));

  cfg = base;
  cfg.scheme_ctx.priv.wbb.entries = 8;
  EXPECT_NE(fp, run_fingerprint(cfg, scale, combo, snug));

  cfg = base;
  cfg.scheme_ctx.snug.flip_enabled = false;
  EXPECT_NE(fp, run_fingerprint(cfg, scale, combo, snug));

  cfg = base;
  cfg.scheme_ctx.dsr.use_set_dueling = true;
  EXPECT_NE(fp, run_fingerprint(cfg, scale, combo, snug));
}

TEST(EvalCache, RunFingerprintIsStableAndSensitive) {
  const SystemConfig cfg = paper_system_config();
  RunScale scale;
  const trace::WorkloadCombo combo{"t", 5, {"gzip", "mesa", "gzip", "mesa"}};
  const schemes::SchemeSpec snug{schemes::SchemeKind::kSNUG, 0.0};

  // Stable: same inputs, same fingerprint, across calls.
  const std::uint64_t fp = run_fingerprint(cfg, scale, combo, snug);
  EXPECT_EQ(fp, run_fingerprint(cfg, scale, combo, snug));

  // Sensitive: scheme, combo contents, combo name, and scale each matter.
  EXPECT_NE(fp, run_fingerprint(cfg, scale, combo,
                                {schemes::SchemeKind::kDSR, 0.0}));
  EXPECT_NE(fp, run_fingerprint(cfg, scale, combo,
                                {schemes::SchemeKind::kCC, 0.5}));
  trace::WorkloadCombo renamed = combo;
  renamed.name = "t2";
  EXPECT_NE(fp, run_fingerprint(cfg, scale, renamed, snug));
  trace::WorkloadCombo swapped = combo;
  swapped.benchmarks = {"mesa", "gzip", "gzip", "mesa"};
  EXPECT_NE(fp, run_fingerprint(cfg, scale, swapped, snug));
  RunScale longer = scale;
  longer.measure_cycles *= 2;
  EXPECT_NE(fp, run_fingerprint(cfg, longer, combo, snug));
}

TEST(EvalCache, RunFingerprintFromConfigFingerprintMatchesEveryPaperCell) {
  const SystemConfig cfg = paper_system_config();
  const RunScale scale;
  const std::uint64_t config_fp = config_fingerprint(cfg, scale);
  std::size_t cells = 0;
  for (const trace::WorkloadCombo& combo : trace::all_combos()) {
    for (const schemes::SchemeSpec& spec : schemes::paper_scheme_grid()) {
      // The derivation every published cache entry was keyed by.
      std::string tag = combo.name;
      for (const std::string& bench : combo.benchmarks) {
        tag += '|';
        tag += bench;
      }
      tag += '|';
      tag += spec.id();
      const std::uint64_t want =
          Rng::derive_seed(tag, config_fp, EvalCache::kVersion);
      EXPECT_EQ(run_fingerprint(config_fp, combo, spec), want)
          << combo.name << "/" << spec.id();
      EXPECT_EQ(run_fingerprint(cfg, scale, combo, spec), want)
          << combo.name << "/" << spec.id();
      ++cells;
    }
  }
  EXPECT_EQ(cells, 189u) << "21 Table-8 combos x 9 paper schemes";
}

TEST(EvalCache, CacheKeyEmbedsComboSchemeAndFingerprint) {
  ExperimentRunner runner(paper_system_config(), RunScale{}, "");
  const trace::WorkloadCombo combo{"t", 5, {"gzip", "mesa", "gzip", "mesa"}};
  const schemes::SchemeSpec spec{schemes::SchemeKind::kCC, 0.25};
  const std::string key = runner.cache_key(combo, spec);
  EXPECT_NE(key.find("t__"), std::string::npos);
  EXPECT_NE(key.find("CC(25%)"), std::string::npos);
  EXPECT_EQ(key, runner.cache_key(combo, spec));  // stable
}

}  // namespace
}  // namespace snug::sim
