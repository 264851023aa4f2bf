// AnswerIndex tests (ISSUE 10): the in-memory fingerprint index over
// the EvalCache directory — the one scan at open (later publishes are
// the server's by-name probe's job, pinned in service_server_test),
// same-process insert warm-up, corrupt-entry quarantine at scan time,
// and the never-serve-wrong-bytes guarantee (a CRC-rotten entry can
// only turn into a miss, never a hit).
#include "sim/service/index.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "sim/runner.hpp"

namespace snug::sim::service {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  explicit TempDir(const char* name) {
    dir = fs::temp_directory_path() / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  ~TempDir() { fs::remove_all(dir); }
  fs::path dir;
};

/// Publishes a well-formed cache entry via the real writer.
void publish_entry(const std::string& dir, const std::string& key,
                   std::uint64_t fp, const std::vector<double>& ipc) {
  EvalCache cache(dir);
  cache.store(key, fp, ipc);
}

TEST(AnswerIndexTest, InitialScanIndexesPublishedEntries) {
  TempDir tmp("snug_index_scan");
  const std::string dir = tmp.dir.string();
  const std::vector<double> a{1.25, 2.5};
  const std::vector<double> b{0.75};
  publish_entry(dir, "combo1__SNUG__0000000000000001", 0x1, a);
  publish_entry(dir, "combo2__SNUG__0000000000000002", 0x2, b);

  AnswerIndex index(dir);
  std::vector<double> ipc;
  ASSERT_TRUE(index.lookup(0x1, ipc));
  EXPECT_EQ(ipc, a);
  ASSERT_TRUE(index.lookup(0x2, ipc));
  EXPECT_EQ(ipc, b);
  EXPECT_FALSE(index.lookup(0x3, ipc));

  const AnswerIndex::Counters c = index.counters();
  EXPECT_EQ(c.entries, 2u);
  EXPECT_EQ(c.files_indexed, 2u);
  EXPECT_EQ(c.hits, 2u);
  EXPECT_EQ(c.misses, 1u);
}

TEST(AnswerIndexTest, LookupsNeverReadTheDirectoryAfterOpen) {
  TempDir tmp("snug_index_no_rescan");
  const std::string dir = tmp.dir.string();
  publish_entry(dir, "c1__SNUG__000000000000000a", 0xA, {1.0});
  AnswerIndex index(dir);

  // A later publish stays invisible to lookups: the index lists the
  // directory once, at open, and never reads a file again.
  publish_entry(dir, "c2__SNUG__000000000000000b", 0xB, {2.0, 3.0});
  std::vector<double> ipc;
  EXPECT_FALSE(index.lookup(0xB, ipc));
  EXPECT_EQ(index.counters().files_indexed, 1u);
  // The server inserts what its by-name probe finds.
  index.insert(0xB, {2.0, 3.0});
  ASSERT_TRUE(index.lookup(0xB, ipc));
  EXPECT_EQ(ipc, (std::vector<double>{2.0, 3.0}));
  EXPECT_EQ(index.counters().files_indexed, 1u);
}

TEST(AnswerIndexTest, InsertKeepsIndexWarmWithoutRescan) {
  TempDir tmp("snug_index_insert");
  AnswerIndex index(tmp.dir.string());
  index.insert(0x77, {4.5, 6.75});
  std::vector<double> ipc;
  ASSERT_TRUE(index.lookup(0x77, ipc));
  EXPECT_EQ(ipc, (std::vector<double>{4.5, 6.75}));
  EXPECT_EQ(index.counters().files_indexed, 0u) << "insert reads no file";
  // Duplicate inserts are no-ops (entries are immutable by fingerprint).
  index.insert(0x77, {9.0});
  ASSERT_TRUE(index.lookup(0x77, ipc));
  EXPECT_EQ(ipc, (std::vector<double>{4.5, 6.75}));
}

TEST(AnswerIndexTest, ManyEntriesSurviveTableGrowth) {
  TempDir tmp("snug_index_grow");
  AnswerIndex index(tmp.dir.string());
  // Push far past the initial table's load limit to force rehashes.
  for (std::uint64_t fp = 1; fp <= 3000; ++fp) {
    index.insert(fp, {static_cast<double>(fp) * 0.5});
  }
  std::vector<double> ipc;
  for (std::uint64_t fp = 1; fp <= 3000; ++fp) {
    ASSERT_TRUE(index.lookup(fp, ipc)) << fp;
    ASSERT_EQ(ipc[0], static_cast<double>(fp) * 0.5);
  }
  EXPECT_EQ(index.counters().entries, 3000u);
}

TEST(AnswerIndexTest, CorruptEntryIsQuarantinedAndNeverServed) {
  TempDir tmp("snug_index_corrupt");
  const std::string dir = tmp.dir.string();
  publish_entry(dir, "good__SNUG__0000000000000001", 0x1, {1.5});
  publish_entry(dir, "rotten__SNUG__0000000000000002", 0x2, {2.5});
  // Rot one payload byte of the second entry: header still plausible,
  // CRC now wrong.
  {
    std::fstream f(tmp.dir / "rotten__SNUG__0000000000000002.snugc",
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(26);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(26);
    byte = static_cast<char>(byte ^ 0x10);
    f.write(&byte, 1);
  }

  AnswerIndex index(dir);
  std::vector<double> ipc;
  EXPECT_TRUE(index.lookup(0x1, ipc));
  EXPECT_FALSE(index.lookup(0x2, ipc))
      << "a CRC-rotten entry must miss, never serve";
  const AnswerIndex::Counters c = index.counters();
  EXPECT_EQ(c.files_rejected, 1u);
  EXPECT_EQ(c.quarantined, 1u);
  EXPECT_TRUE(fs::exists(tmp.dir / "quarantine"))
      << "corrupt entries are moved aside, never deleted";

  // A good entry re-published under the same name is not re-read here;
  // the server's by-name probe serves the heal
  // (CampaignServerTest.CorruptEntryQuarantinedAtOpenServesTheHealedFile).
  publish_entry(dir, "rotten__SNUG__0000000000000002", 0x2, {2.5});
  EXPECT_FALSE(index.lookup(0x2, ipc));
}

TEST(AnswerIndexTest, FingerprintZeroFallsBackToMiss) {
  TempDir tmp("snug_index_fp0");
  AnswerIndex index(tmp.dir.string());
  index.insert(0, {1.0});  // refused: 0 is the empty-slot sentinel
  std::vector<double> ipc;
  EXPECT_FALSE(index.lookup(0, ipc));
}

}  // namespace
}  // namespace snug::sim::service
