// BlobStore rejection and recovery matrix, run through both typed views
// (EvalCache: f64 IPCs in `.snugc`; WarmStateBank: raw bytes in
// `.snugw`): truncation, trailing bytes, bad magic, version and count,
// payload CRC flips, stale-kept versus corrupt-quarantined, dead-writer
// temp reap, the quarantine bound, concurrent same-key writers and a
// cross-process reader racing a rewriting writer.  Two format pins close
// the file: a `.snugc` hand-built in the v4 byte layout loads with
// bit-equal IPCs, and a v2 (32-byte header) `.snugw` is stale — left in
// place, never quarantined.
#include "sim/blob_store.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32.hpp"
#include "common/str.hpp"
#include "sim/runner.hpp"
#include "sim/warm_state.hpp"

namespace snug::sim {
namespace {

namespace fs = std::filesystem;

// Header field offsets of the shared 24-byte entry header.
constexpr std::streamoff kMagicAt = 0;
constexpr std::streamoff kVersionAt = 4;
constexpr std::streamoff kCountAt = 16;
constexpr std::streamoff kHeaderBytes = 24;

struct CacheView {
  using Store = EvalCache;
  using Payload = std::vector<double>;
  static constexpr const char* kSuffix = ".snugc";
  static Payload payload(std::size_t n, int salt = 0) {
    Payload p(n);
    for (std::size_t i = 0; i < n; ++i) p[i] = 0.125 * (i + 1) + salt;
    return p;
  }
  static std::uint32_t absurd_count() { return EvalCache::kMaxEntries + 1; }
};

struct BankView {
  using Store = WarmStateBank;
  using Payload = std::vector<std::byte>;
  static constexpr const char* kSuffix = ".snugw";
  static Payload payload(std::size_t n, int salt = 0) {
    Payload p(n);
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = static_cast<std::byte>((i * 37 + 11 + salt) & 0xFF);
    }
    return p;
  }
  // The u32 count cannot exceed the bank's bound; the largest count is
  // absurd because no file that size accompanies it.
  static std::uint32_t absurd_count() { return WarmStateBank::kMaxBytes; }
};

std::string test_dir_name() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = strf("snug_blob_store_%s_%s_%ld", info->test_suite_name(),
                          info->name(), static_cast<long>(::getpid()));
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  return name;
}

template <typename View>
class BlobStoreTest : public ::testing::Test {
 protected:
  using Store = typename View::Store;
  using Payload = typename View::Payload;

  BlobStoreTest() : dir_(fs::temp_directory_path() / test_dir_name()) {
    fs::remove_all(dir_);
  }
  ~BlobStoreTest() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string dir() const { return dir_.string(); }
  [[nodiscard]] fs::path entry(const std::string& key) const {
    return dir_ / (key + View::kSuffix);
  }
  void poke_u32(const std::string& key, std::streamoff off,
                std::uint32_t v) const {
    std::fstream f(entry(key), std::ios::binary | std::ios::in |
                                   std::ios::out);
    f.seekp(off);
    f.write(reinterpret_cast<const char*>(&v), sizeof v);
  }
  void flip_payload_bit(const std::string& key, std::streamoff at) const {
    std::fstream f(entry(key), std::ios::binary | std::ios::in |
                                   std::ios::out);
    f.seekg(kHeaderBytes + at);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    f.seekp(kHeaderBytes + at);
    f.write(&byte, 1);
  }
  [[nodiscard]] std::size_t quarantine_files() const {
    if (!fs::exists(dir_ / "quarantine")) return 0;
    std::size_t n = 0;
    for (const auto& e : fs::directory_iterator(dir_ / "quarantine")) {
      (void)e;
      ++n;
    }
    return n;
  }

  fs::path dir_;
};

using Views = ::testing::Types<CacheView, BankView>;
TYPED_TEST_SUITE(BlobStoreTest, Views);

TYPED_TEST(BlobStoreTest, RoundTripsExactPayload) {
  const typename TestFixture::Store store(this->dir());
  const auto want = TypeParam::payload(129);  // odd size: no alignment luck
  store.store("k", 42, want);
  typename TestFixture::Payload got;
  ASSERT_TRUE(store.load("k", 42, got));
  EXPECT_EQ(got, want);
}

TYPED_TEST(BlobStoreTest, MissingEntryMisses) {
  const typename TestFixture::Store store(this->dir());
  typename TestFixture::Payload got;
  EXPECT_FALSE(store.load("absent", 1, got));
}

TYPED_TEST(BlobStoreTest, DisabledStoreRejectsEverything) {
  const typename TestFixture::Store store("");
  EXPECT_FALSE(store.enabled());
  store.store("k", 42, TypeParam::payload(8));  // no crash, no files
  typename TestFixture::Payload got;
  EXPECT_FALSE(store.load("k", 42, got));
  EXPECT_FALSE(fs::exists(this->dir_));
}

TYPED_TEST(BlobStoreTest, RejectsTruncatedEntry) {
  const typename TestFixture::Store store(this->dir());
  store.store("k", 42, TypeParam::payload(64));
  // Chop the payload mid-element, as a torn write would.
  const fs::path path = this->entry("k");
  fs::resize_file(path, fs::file_size(path) - 12);
  typename TestFixture::Payload got;
  EXPECT_FALSE(store.load("k", 42, got));
  EXPECT_TRUE(got.empty());  // nothing partial leaks out
  EXPECT_EQ(store.recovery().quarantined, 1u);
}

TYPED_TEST(BlobStoreTest, RejectsHeaderOnlyOrEmptyFile) {
  const typename TestFixture::Store store(this->dir());
  { std::ofstream out(this->entry("empty"), std::ios::binary); }
  store.store("k", 42, TypeParam::payload(8));
  fs::resize_file(this->entry("k"), kHeaderBytes);  // header only
  typename TestFixture::Payload got;
  EXPECT_FALSE(store.load("empty", 42, got));
  EXPECT_FALSE(store.load("k", 42, got));
  EXPECT_EQ(store.recovery().quarantined, 2u);
}

TYPED_TEST(BlobStoreTest, RejectsTrailingBytes) {
  const typename TestFixture::Store store(this->dir());
  store.store("k", 42, TypeParam::payload(8));
  {
    std::ofstream out(this->entry("k"), std::ios::binary | std::ios::app);
    out << "junk";
  }
  typename TestFixture::Payload got;
  EXPECT_FALSE(store.load("k", 42, got));
  EXPECT_EQ(store.recovery().quarantined, 1u);
}

TYPED_TEST(BlobStoreTest, RejectsBadMagicZeroAndAbsurdCount) {
  const typename TestFixture::Store store(this->dir());
  typename TestFixture::Payload got;

  store.store("k", 42, TypeParam::payload(8));
  this->poke_u32("k", kMagicAt, 0xDEADBEEF);
  EXPECT_FALSE(store.load("k", 42, got));

  store.store("k", 42, TypeParam::payload(8));
  this->poke_u32("k", kCountAt, 0);
  EXPECT_FALSE(store.load("k", 42, got));

  store.store("k", 42, TypeParam::payload(8));
  this->poke_u32("k", kCountAt, TypeParam::absurd_count());
  EXPECT_FALSE(store.load("k", 42, got));

  EXPECT_EQ(store.recovery().quarantined, 3u) << "all three are corrupt";
}

TYPED_TEST(BlobStoreTest, RejectsFlippedPayloadBitViaCrc) {
  const typename TestFixture::Store store(this->dir());
  store.store("k", 42, TypeParam::payload(24));
  // Header and size stay plausible, so only the CRC can catch it.
  this->flip_payload_bit("k", 5);
  typename TestFixture::Payload got;
  EXPECT_FALSE(store.load("k", 42, got));
  EXPECT_EQ(store.recovery().quarantined, 1u);
}

TYPED_TEST(BlobStoreTest, StaleEntriesStayCorruptOnesAreQuarantined) {
  const typename TestFixture::Store store(this->dir());
  const auto torn = TypeParam::payload(32);
  store.store("torn", 42, torn);
  store.store("stale", 42, TypeParam::payload(16));
  store.store("past", 42, TypeParam::payload(16));
  store.store("future", 42, TypeParam::payload(16));
  fs::resize_file(this->entry("torn"), fs::file_size(this->entry("torn")) - 9);
  this->poke_u32("past", kVersionAt, TypeParam::Store::kVersion - 1);
  this->poke_u32("future", kVersionAt, TypeParam::Store::kVersion + 1);

  typename TestFixture::Payload got;
  EXPECT_FALSE(store.load("torn", 42, got));
  EXPECT_FALSE(store.load("stale", 99, got));   // fingerprint: stale
  EXPECT_FALSE(store.load("past", 42, got));    // older format: stale
  EXPECT_FALSE(store.load("future", 42, got));  // newer format: stale
  EXPECT_TRUE(got.empty());

  // The torn file moved aside (evidence, never deleted); the stale ones
  // are untouched, and the wrong-fingerprint one still serves its own.
  EXPECT_FALSE(fs::exists(this->entry("torn")));
  EXPECT_TRUE(fs::exists(this->entry("past")));
  EXPECT_TRUE(fs::exists(this->entry("future")));
  ASSERT_EQ(this->quarantine_files(), 1u);
  for (const auto& e : fs::directory_iterator(this->dir_ / "quarantine")) {
    EXPECT_EQ(e.path().filename().string().rfind(
                  std::string("torn") + TypeParam::kSuffix, 0),
              0u);
  }
  EXPECT_EQ(store.recovery().quarantined, 1u);
  EXPECT_TRUE(store.load("stale", 42, got));

  // Degradation is recompute + rewrite: a fresh store heals the slot.
  store.store("torn", 42, torn);
  ASSERT_TRUE(store.load("torn", 42, got));
  EXPECT_EQ(got, torn);
}

TYPED_TEST(BlobStoreTest, StoreLeavesNoTempFiles) {
  const typename TestFixture::Store store(this->dir());
  for (int i = 0; i < 8; ++i) {
    store.store(strf("k%d", i), 42, TypeParam::payload(16));
  }
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(this->dir_)) {
    EXPECT_EQ(e.path().extension(), TypeParam::kSuffix) << e.path();
    ++files;
  }
  EXPECT_EQ(files, 8u);
}

TYPED_TEST(BlobStoreTest, ReapsDeadWritersTempsOnOpen) {
  {
    const typename TestFixture::Store store(this->dir());
    store.store("keep", 42, TypeParam::payload(8));
  }
  // What killed writers leave behind: a dead pid's temp and a mangled
  // name nobody will ever rename — plus a live writer's (ours), which
  // must survive the reap.
  const char* suffix = TypeParam::kSuffix;
  const std::string dead = strf("keep%s.tmp.999999999.7", suffix);
  const std::string mangled = strf("other%s.tmp.bogus.3", suffix);
  const std::string live =
      strf("live%s.tmp.%ld.1", suffix, static_cast<long>(::getpid()));
  for (const std::string& name : {dead, mangled, live}) {
    std::ofstream(this->dir_ / name, std::ios::binary) << "partial";
  }

  const typename TestFixture::Store reopened(this->dir());
  EXPECT_EQ(reopened.recovery().reaped_temps, 2u);
  EXPECT_FALSE(fs::exists(this->dir_ / dead));
  EXPECT_FALSE(fs::exists(this->dir_ / mangled));
  EXPECT_TRUE(fs::exists(this->dir_ / live));
  typename TestFixture::Payload got;
  EXPECT_TRUE(reopened.load("keep", 42, got));  // entries untouched
}

TYPED_TEST(BlobStoreTest, QuarantineDirectoryIsBoundedOnOpen) {
  {
    const typename TestFixture::Store store(this->dir());
    store.store("keep", 42, TypeParam::payload(8));
  }
  // A store that healed corruption for months.
  fs::create_directories(this->dir_ / "quarantine");
  for (std::size_t i = 0; i < kQuarantineCap + 20; ++i) {
    std::ofstream(this->dir_ / "quarantine" /
                      strf("old%zu%s.7.1", 1000 + i, TypeParam::kSuffix),
                  std::ios::binary)
        << "evidence";
  }

  const typename TestFixture::Store reopened(this->dir());
  EXPECT_EQ(reopened.recovery().quarantine_trimmed, 20u);
  EXPECT_EQ(this->quarantine_files(), kQuarantineCap);
  typename TestFixture::Payload got;
  EXPECT_TRUE(reopened.load("keep", 42, got)) << "entries untouched";
}

TYPED_TEST(BlobStoreTest, ConcurrentWritersSameKeyStayConsistent) {
  const typename TestFixture::Store store(this->dir());
  const auto want = TypeParam::payload(64);
  std::vector<std::thread> writers;
  writers.reserve(8);
  for (int t = 0; t < 8; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < 50; ++i) store.store("k", 42, want);
    });
  }
  for (auto& w : writers) w.join();

  typename TestFixture::Payload got;
  ASSERT_TRUE(store.load("k", 42, got));
  EXPECT_EQ(got, want);
  for (const auto& e : fs::directory_iterator(this->dir_)) {
    EXPECT_EQ(e.path().extension(), TypeParam::kSuffix) << e.path();
  }
}

TYPED_TEST(BlobStoreTest, CrossProcessReaderNeverObservesATornWrite) {
  const auto a = TypeParam::payload(64, 0);
  const auto b = TypeParam::payload(64, 3);
  const typename TestFixture::Store reader(this->dir());
  reader.store("k", 42, a);

  // The child rewrites the same key as fast as it can, alternating two
  // payloads; the parent reads concurrently.  The atomic temp+rename
  // publish means every load is exactly A or exactly B — never a
  // mixture, never a CRC rejection.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const typename TestFixture::Store writer(this->dir());
    for (int i = 0; i < 400; ++i) writer.store("k", 42, (i % 2) ? b : a);
    ::_exit(0);
  }
  std::size_t loads = 0;
  int status = 0;
  bool child_done = false;
  while (!child_done) {
    child_done = ::waitpid(pid, &status, WNOHANG) == pid;
    typename TestFixture::Payload got;
    ASSERT_TRUE(reader.load("k", 42, got)) << "after " << loads << " loads";
    EXPECT_TRUE(got == a || got == b) << "torn payload observed";
    ++loads;
  }
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_GT(loads, 0u);
  EXPECT_EQ(reader.recovery().quarantined, 0u);
}

// ---- store-level probe and scan ----------------------------------------

using BlobStoreProbe = BlobStoreTest<BankView>;

TEST_F(BlobStoreProbe, HeaderOnlyProbeNeverQuarantines) {
  // WarmStateBank::contains is the store's probe: the header is checked,
  // the payload is not, so a file torn mid-payload still probes true and
  // only the full load makes (and acts on) the structural call.
  const WarmStateBank bank(dir());
  EXPECT_FALSE(bank.contains("k", 42));
  bank.store("k", 42, BankView::payload(256));
  EXPECT_TRUE(bank.contains("k", 42));
  EXPECT_FALSE(bank.contains("k", 43)) << "fingerprint mismatch";
  EXPECT_FALSE(bank.contains("absent", 42));

  fs::resize_file(entry("k"), fs::file_size(entry("k")) - 57);
  EXPECT_TRUE(bank.contains("k", 42));
  EXPECT_EQ(bank.recovery().quarantined, 0u);
  std::vector<std::byte> got;
  EXPECT_FALSE(bank.load("k", 42, got));
  EXPECT_EQ(bank.recovery().quarantined, 1u);
  EXPECT_FALSE(bank.contains("k", 42));

  bank.store("k", 42, BankView::payload(64));
  poke_u32("k", kVersionAt, WarmStateBank::kVersion + 1);
  EXPECT_FALSE(bank.contains("k", 42)) << "stale by version";
}

using BlobStoreScan = BlobStoreTest<CacheView>;

TEST_F(BlobStoreScan, ScanVisitsValidEntriesSkipsStaleQuarantinesCorrupt) {
  const EvalCache cache(dir());
  cache.store("a", 0xA, {1.5, 2.5});
  cache.store("b", 0xB, {0.75});
  cache.store("old", 0xC, {3.0});
  cache.store("rot", 0xD, {4.0, 5.0});
  poke_u32("old", kVersionAt, 3);
  flip_payload_bit("rot", 2);
  std::ofstream(dir_ / "notes.txt") << "not an entry";

  std::vector<std::pair<std::uint64_t, std::vector<double>>> seen;
  const EvalCache scanner(dir());
  const BlobStore::ScanCounts counts =
      scanner.scan([&](std::uint64_t fp, const std::vector<double>& ipc) {
        seen.emplace_back(fp, ipc);
      });
  EXPECT_EQ(counts.indexed, 2u);
  EXPECT_EQ(counts.rejected, 2u);
  EXPECT_EQ(scanner.recovery().quarantined, 1u);
  ASSERT_EQ(seen.size(), 2u);  // sorted listing: a, b
  EXPECT_EQ(seen[0], (std::pair<std::uint64_t, std::vector<double>>{
                         0xA, {1.5, 2.5}}));
  EXPECT_EQ(seen[1], (std::pair<std::uint64_t, std::vector<double>>{
                         0xB, {0.75}}));
  EXPECT_TRUE(fs::exists(entry("old"))) << "stale stays in place";
  EXPECT_FALSE(fs::exists(entry("rot"))) << "corrupt moves aside";
  EXPECT_TRUE(fs::exists(dir_ / "notes.txt"));
}

// ---- format pins ---------------------------------------------------------

TEST_F(BlobStoreScan, V4SnugcByteLayoutLoadsBitEqual) {
  // The eval-cache entry layout every published `.snugc` uses (v4):
  //   u32 'SNUG' | u32 4 | u64 fp | u32 count | u32 CRC-32C | f64 x count
  // hand-built byte by byte, so a layout change cannot slip through.
  ASSERT_EQ(EvalCache::kVersion, 4u);
  const double ipc[3] = {1.2345678901234567, 0.000001, 7e-12};
  const std::uint32_t magic = 0x47554E53;
  const std::uint32_t version = 4;
  const std::uint64_t fp = 0x0123456789ABCDEFULL;
  const std::uint32_t count = 3;
  const std::uint32_t crc = crc32c(ipc, sizeof ipc);
  std::vector<char> bytes(24 + sizeof ipc);
  std::memcpy(bytes.data() + 0, &magic, 4);
  std::memcpy(bytes.data() + 4, &version, 4);
  std::memcpy(bytes.data() + 8, &fp, 8);
  std::memcpy(bytes.data() + 16, &count, 4);
  std::memcpy(bytes.data() + 20, &crc, 4);
  std::memcpy(bytes.data() + 24, ipc, sizeof ipc);
  fs::create_directories(dir_);
  std::ofstream(entry("pinned"), std::ios::binary)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));

  const EvalCache cache(dir());
  std::vector<double> got;
  ASSERT_TRUE(cache.load("pinned", fp, got));
  ASSERT_EQ(got.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    std::uint64_t want_bits = 0;
    std::uint64_t got_bits = 0;
    std::memcpy(&want_bits, &ipc[i], 8);
    std::memcpy(&got_bits, &got[i], 8);
    EXPECT_EQ(got_bits, want_bits) << "core " << i;
  }

  // And the store writes exactly these bytes back.
  cache.store("rewritten", fp, got);
  std::ifstream in(entry("rewritten"), std::ios::binary);
  const std::vector<char> written((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  EXPECT_EQ(written, bytes);
}

TEST_F(BlobStoreProbe, V2SnugwWithThirtyTwoByteHeaderIsStale) {
  // The v2 bank layout: u32 magic | u32 2 | u64 fp | u64 payload_bytes |
  // u32 CRC-32C | u32 reserved | payload.  Its files are merely stale
  // under v6: left in place, never quarantined.
  ASSERT_EQ(WarmStateBank::kVersion, 6u);
  const std::vector<std::byte> blob = BankView::payload(100);
  struct V2Header {
    std::uint32_t magic = WarmStateBank::kMagic;
    std::uint32_t version = 2;
    std::uint64_t fingerprint = 42;
    std::uint64_t payload_bytes = 100;
    std::uint32_t payload_crc = 0;
    std::uint32_t reserved = 0;
  } hdr;
  static_assert(sizeof(V2Header) == 32);
  hdr.payload_crc = crc32c(blob.data(), blob.size());
  fs::create_directories(dir_);
  {
    std::ofstream out(entry("legacy"), std::ios::binary);
    out.write(reinterpret_cast<const char*>(&hdr), sizeof hdr);
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
  }

  const WarmStateBank bank(dir());
  std::vector<std::byte> got;
  EXPECT_FALSE(bank.load("legacy", 42, got));
  EXPECT_TRUE(got.empty());
  EXPECT_FALSE(bank.contains("legacy", 42));
  EXPECT_TRUE(fs::exists(entry("legacy")));
  EXPECT_EQ(bank.recovery().quarantined, 0u);
  EXPECT_FALSE(fs::exists(dir_ / "quarantine"));
}

}  // namespace
}  // namespace snug::sim
