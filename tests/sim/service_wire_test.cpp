// Campaign-service wire protocol tests (ISSUE 9): query/answer encode
// and parse round trips, malformed-input rejection with diagnostics,
// query-id hygiene (ids become file names — no traversal, no
// separators), exact %.17g IPC round-tripping, a literal pin of the
// answer bytes, the verified publish under a torn write, and the
// ServiceClient's atomic submit / poll behaviour and its event-driven
// wait.
#include "sim/service/wire.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "common/str.hpp"
#include "sim/blob_store.hpp"

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

TEST(ServiceWire, QueryIdsAreFileNameSafe) {
  EXPECT_TRUE(valid_query_id("abc-123_X.Y"));
  EXPECT_FALSE(valid_query_id(""));
  EXPECT_FALSE(valid_query_id("a/b"));
  EXPECT_FALSE(valid_query_id("../up"));
  EXPECT_FALSE(valid_query_id("sp ace"));
  EXPECT_FALSE(valid_query_id("semi;colon"));
  EXPECT_FALSE(valid_query_id(std::string(129, 'a')));
  EXPECT_TRUE(valid_query_id(std::string(128, 'a')));
}

TEST(ServiceWireBatch, BatchAnswerBytesArePinned) {
  ServiceBatchAnswer b;
  b.id = "pin-batch";
  b.parts.resize(4);
  b.parts[0].cells.push_back({"mixA", {1.0 / 3.0, 0.1234567890123456789, 2.0}});
  b.parts[0].cells.push_back({"mixB", {1e-300, 3.0000000000000004, 0.0, -0.0}});
  b.parts[1].status = AnswerStatus::kRetryAfter;
  b.parts[1].retry_after_ms = 250;
  b.parts[2].status = AnswerStatus::kError;
  b.parts[2].error = "unknown scheme 'WAT'";
  b.parts[3].cells.push_back({"mixC", {4.9e-324, 1e21, 1e16, 1e-5}});
  b.parts[3].cells.push_back({"mixD",
                              {4.9e-324, 1e21,
                               std::numeric_limits<double>::max(), -1.5,
                               123456789.0, 1e16, 0.5, 1e-5,
                               2.2250738585072014e-308}});
  EXPECT_EQ(encode_batch_answer(b),
            "answer-v2\n"
            "id=pin-batch\n"
            "parts=4\n"
            "part=0 status=ok\n"
            "part=1 status=retry-after retry-after-ms=250\n"
            "part=2 status=error error=unknown scheme 'WAT'\n"
            "part=3 status=ok\n"
            "cell=0/mixA ipc=0.33333333333333331,0.12345678901234568,2\n"
            "cell=0/mixB ipc=1e-300,3.0000000000000004,0,-0\n"
            "cell=3/mixC ipc=4.9406564584124654e-324,1e+21,"
            "10000000000000000,1.0000000000000001e-05\n"
            "cell=3/mixD ipc=4.9406564584124654e-324,1e+21,"
            "1.7976931348623157e+308,-1.5,123456789,10000000000000000,0.5,"
            "1.0000000000000001e-05,2.2250738585072014e-308\n");
}

// append_g17 must print what printf("%.17g") prints, byte for byte, and
// from_chars must read every printed value back to the same bits.
TEST(ServiceWire, G17FormatterMatchesPrintfOnRandomDoubles) {
  std::mt19937_64 rng(20101015);
  std::uniform_real_distribution<double> ipc_like(0.0, 4.0);
  const double extremes[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::min(),
                             std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::lowest(),
                             std::numeric_limits<double>::epsilon(),
                             9007199254740992.0,  // 2^53
                             1e21,
                             1e-5};
  std::size_t mismatches = 0;
  for (int i = 0; i < 100'000; ++i) {
    double v = 0;
    switch (i % 5) {
      case 0:  // any finite bit pattern, every exponent
        do {
          v = std::bit_cast<double>(rng());
        } while (!std::isfinite(v));
        break;
      case 1:  // subnormals
        v = std::bit_cast<double>(rng() & 0x800F'FFFF'FFFF'FFFFull);
        break;
      case 2:  // integers, small and past 2^53
        v = static_cast<double>(static_cast<std::int64_t>(rng()) >>
                                (rng() % 64));
        break;
      case 3:  // the values answers actually carry
        v = ipc_like(rng);
        break;
      default:
        v = extremes[(i / 5) % std::size(extremes)];
        if (rng() & 1) v = -v;
        break;
    }
    std::string got;
    append_g17(got, v);
    char want[64];
    std::snprintf(want, sizeof want, "%.17g", v);
    double back = 1.0;
    const std::from_chars_result r =
        std::from_chars(got.data(), got.data() + got.size(), back);
    const bool ok = got == want && r.ec == std::errc() &&
                    r.ptr == got.data() + got.size() &&
                    std::bit_cast<std::uint64_t>(back) ==
                        std::bit_cast<std::uint64_t>(v);
    if (!ok && ++mismatches <= 5) {
      ADD_FAILURE() << "append_g17 '" << got << "' vs printf '" << want
                    << "' (bits " << std::bit_cast<std::uint64_t>(v) << ")";
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(ServiceWire, PublishVerifiedNeverPublishesATornWrite) {
  // Regression pin for the chaos-soak bug: a short-written temp used to
  // be renamed into place as a permanently corrupt answer.  The
  // read-back verify must refuse to publish and clean up the temp.
  TempDir tmp("snug_service_wire_torn_publish");
  const std::string final_file = (tmp.dir / "a.answer").string();
  const std::string text(512, 'x');
  const auto* bytes = reinterpret_cast<const std::byte*>(text.data());

  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(fault::FaultPlan::parse("seed=9; short-write@write:p=1",
                                      plan, error))
      << error;
  {
    fault::ScopedFaultPlan scoped(plan);
    EXPECT_FALSE(
        publish_verified(fault::env(), final_file, bytes, text.size()));
    EXPECT_EQ(scoped.stats().short_writes, 1u);
  }
  EXPECT_TRUE(fs::is_empty(tmp.dir))
      << "torn bytes must not publish, and the torn temp is removed";

  // Fault-free, the same publish lands whole, with no temp residue.
  ASSERT_TRUE(publish_verified(fault::env(), final_file, bytes, text.size()));
  EXPECT_EQ(fs::file_size(final_file), text.size());
  EXPECT_EQ(std::distance(fs::directory_iterator(tmp.dir),
                          fs::directory_iterator()),
            1);
}

TEST(ServiceWireBatch, BatchQueryRoundTrips) {
  ServiceBatchQuery q;
  q.id = "sweep-01";
  q.items.push_back({"cores=4 workload=gzip+mesa+gzip+mesa", "SNUG"});
  q.items.push_back({"cores=4 workload=paper", "CC(50%)"});
  q.items.push_back({"cores=8 workload=paper", "PRIV"});
  ServiceBatchQuery back;
  std::string error;
  ASSERT_TRUE(parse_batch_query(encode_batch_query(q), back, error)) << error;
  EXPECT_EQ(back.id, q.id);
  ASSERT_EQ(back.items.size(), 3u);
  for (std::size_t i = 0; i < back.items.size(); ++i) {
    EXPECT_EQ(back.items[i].scenario_text, q.items[i].scenario_text) << i;
    EXPECT_EQ(back.items[i].scheme_id, q.items[i].scheme_id) << i;
  }
}

TEST(ServiceWireBatch, BatchQueryParseRejectsMalformedInput) {
  ServiceBatchQuery out;
  std::string error;
  EXPECT_FALSE(parse_batch_query("", out, error));
  EXPECT_FALSE(parse_batch_query("not-a-query\nid=a\nquery=SNUG|cores=4",
                                 out, error))
      << "another magic must not parse";
  EXPECT_NE(error.find("query-v2"), std::string::npos)
      << "the diagnostic names the expected magic: " << error;
  EXPECT_FALSE(parse_batch_query("query-v2\nid=a", out, error))
      << "a batch with no items is malformed";
  EXPECT_FALSE(parse_batch_query("query-v2\nid=a\nquery=no-separator",
                                 out, error))
      << "an item without '|' is malformed";
  EXPECT_NE(error.find("<scheme>|<scenario>"), std::string::npos) << error;
  EXPECT_FALSE(parse_batch_query("query-v2\nid=a\nquery=|cores=4", out,
                                 error))
      << "an empty scheme is malformed";
  EXPECT_FALSE(parse_batch_query("query-v2\nid=a\nquery=SNUG|", out,
                                 error))
      << "an empty scenario is malformed";
  EXPECT_FALSE(parse_batch_query(
      "query-v2\nid=../up\nquery=SNUG|cores=4", out, error))
      << "a traversal id must be rejected at parse";
  EXPECT_FALSE(parse_batch_query(
      "query-v2\nid=a\nquery=SNUG|cores=4\nbogus=1", out, error));
  // The item cap is enforced at parse, not just at submit.
  std::string huge = "query-v2\nid=a";
  for (std::size_t i = 0; i <= kMaxBatchItems; ++i) {
    huge += "\nquery=SNUG|cores=4";
  }
  EXPECT_FALSE(parse_batch_query(huge, out, error));
  EXPECT_NE(error.find("exceeds"), std::string::npos) << error;
}

TEST(ServiceWireBatch, BatchAnswerRoundTripsMixedStatusesExactly) {
  ServiceBatchAnswer a;
  a.id = "sweep-02";
  a.parts.resize(4);
  a.parts[0].cells.push_back({"mixA", {1.0 / 3.0, 0.1234567890123456789}});
  a.parts[0].cells.push_back({"mixB", {1e-300}});
  a.parts[1].status = AnswerStatus::kError;
  a.parts[1].error = "unknown scheme 'WAT'";
  a.parts[2].status = AnswerStatus::kRetryAfter;
  a.parts[2].retry_after_ms = 250;
  a.parts[3].cells.push_back({"mixC", {3.0000000000000004}});

  ServiceBatchAnswer back;
  std::string error;
  ASSERT_TRUE(parse_batch_answer(encode_batch_answer(a), back, error))
      << error;
  EXPECT_EQ(back.id, a.id);
  ASSERT_EQ(back.parts.size(), 4u);
  EXPECT_EQ(back.parts[0].status, AnswerStatus::kOk);
  ASSERT_EQ(back.parts[0].cells.size(), 2u);
  // Bit-exact: resumed batch answers are byte-diffed in the chaos soak.
  EXPECT_EQ(back.parts[0].cells[0].ipc, a.parts[0].cells[0].ipc);
  EXPECT_EQ(back.parts[0].cells[1].ipc, a.parts[0].cells[1].ipc);
  EXPECT_EQ(back.parts[1].status, AnswerStatus::kError);
  EXPECT_EQ(back.parts[1].error, a.parts[1].error);
  EXPECT_EQ(back.parts[2].status, AnswerStatus::kRetryAfter);
  EXPECT_EQ(back.parts[2].retry_after_ms, 250u);
  ASSERT_EQ(back.parts[3].cells.size(), 1u);
  EXPECT_EQ(back.parts[3].cells[0].combo, "mixC");
  EXPECT_EQ(encode_batch_answer(back), encode_batch_answer(a));
}

TEST(ServiceWireBatch, BatchAnswerParseRejectsMalformedInput) {
  ServiceBatchAnswer out;
  std::string error;
  EXPECT_FALSE(parse_batch_answer("", out, error));
  EXPECT_FALSE(parse_batch_answer("answer-v2\nid=a", out, error))
      << "missing parts= must be rejected";
  EXPECT_FALSE(parse_batch_answer("answer-v2\nid=a\nparts=0", out, error));
  EXPECT_FALSE(parse_batch_answer(
      "answer-v2\nid=a\nparts=2\npart=0 status=ok", out, error))
      << "a missing part line must be rejected";
  EXPECT_NE(error.find("missing part 1"), std::string::npos) << error;
  EXPECT_FALSE(parse_batch_answer(
      "answer-v2\nid=a\nparts=1\npart=0 status=ok\npart=0 status=ok",
      out, error))
      << "a duplicate part line must be rejected";
  EXPECT_FALSE(parse_batch_answer(
      "answer-v2\nid=a\nparts=1\npart=1 status=ok", out, error))
      << "an out-of-range part index must be rejected";
  EXPECT_FALSE(parse_batch_answer(
      "answer-v2\nid=a\nparts=1\npart=0 status=error", out, error))
      << "status=error without error= must be rejected";
  EXPECT_FALSE(parse_batch_answer(
      "answer-v2\nid=a\nparts=1\npart=0 status=ok\ncell=0/m ipc=1,bad",
      out, error));
  EXPECT_FALSE(parse_batch_answer(
      "answer-v2\nid=a\nparts=1\npart=0 status=ok\ncell=9/m ipc=1.0",
      out, error))
      << "a cell pointing past parts= must be rejected";
  EXPECT_FALSE(parse_batch_answer(
      "answer-v2\nid=a\nparts=1\npart=0 status=maybe", out, error));
  // Empty list entries, trailing junk and numbers the encoder never
  // writes (leading whitespace, '+', hex, out of range).
  for (const char* ipc : {"ipc=1,,2", "ipc=1.0,", "ipc=1.0x", "ipc=",
                          "ipc=,1", "ipc= 1.0", "ipc=+1.0", "ipc=0x1p3",
                          "ipc=1e400", "ipc=1.0 "}) {
    EXPECT_FALSE(parse_batch_answer(
        std::string("answer-v2\nid=a\nparts=1\npart=0 status=ok\n"
                    "cell=0/m ") + ipc,
        out, error))
        << ipc;
  }
  EXPECT_FALSE(parse_batch_answer(
      "answer-v2\nid=a\nparts=1\npart=0 status=ok\ncell=0/m", out, error))
      << "a cell without ipc= must be rejected";
  EXPECT_FALSE(parse_batch_answer(
      "answer-v2\nid=a\nparts=1\npart=0 status=ok\ncell=0/ ipc=1", out,
      error))
      << "a cell without a combo must be rejected";
  EXPECT_FALSE(parse_batch_answer(
      "answer-v2\nid=a\nparts=1\npart=+0 status=ok", out, error));
  EXPECT_FALSE(parse_batch_answer(
      "answer-v2\nid=a\nparts= 1\npart=0 status=ok", out, error));
  for (const char* ms : {"-1", "+5", ""}) {
    EXPECT_FALSE(parse_batch_answer(
        std::string("answer-v2\nid=a\nparts=1\npart=0 status=retry-after "
                    "retry-after-ms=") + ms,
        out, error))
        << ms;
  }
}

TEST(ServiceClientTest, SubmitPublishesAtomicallyAndPollsAnswers) {
  TempDir tmp("snug_service_wire_batch_client");
  const std::string root = tmp.dir.string();
  ServiceClient client(root);

  ServiceBatchQuery q;
  q.id = "b1";
  q.items.push_back({"cores=4", "SNUG"});
  q.items.push_back({"cores=4", "CC(50%)"});
  std::string error;
  ASSERT_TRUE(client.submit_batch(q, &error)) << error;
  // The query file is fully published (no temp residue).
  EXPECT_TRUE(fs::exists(query_path(root, "b1")));
  for (const auto& e : fs::directory_iterator(submit_dir(root))) {
    EXPECT_EQ(e.path().filename().string().find(".tmp."),
              std::string::npos);
  }

  ServiceBatchQuery bad_id = q;
  bad_id.id = "../escape";
  EXPECT_FALSE(client.submit_batch(bad_id, &error));
  EXPECT_NE(error.find("bad query id"), std::string::npos) << error;

  ServiceBatchQuery oversized;
  oversized.id = "b2";
  EXPECT_FALSE(client.submit_batch(oversized, &error))
      << "an empty batch must not submit";
  oversized.items.assign(kMaxBatchItems + 1, {"cores=4", "SNUG"});
  EXPECT_FALSE(client.submit_batch(oversized, &error));

  ServiceBatchAnswer polled;
  EXPECT_FALSE(client.try_poll_batch("b1", polled)) << "no answer yet";

  // A mangled answer file resolves the poll as one status=error part,
  // never spinning the client forever.
  std::ofstream(answer_path(root, "b1"), std::ios::binary) << "garbage";
  ASSERT_TRUE(client.try_poll_batch("b1", polled));
  ASSERT_EQ(polled.parts.size(), 1u);
  EXPECT_EQ(polled.parts[0].status, AnswerStatus::kError);
  EXPECT_NE(polled.parts[0].error.find("unparseable answer"),
            std::string::npos)
      << polled.parts[0].error;

  // A real v2 answer parses through, and wait_batch resolves on it.
  ServiceBatchAnswer a;
  a.id = "b1";
  a.parts.resize(2);
  a.parts[0].cells.push_back({"mixA", {1.5}});
  a.parts[1].status = AnswerStatus::kRetryAfter;
  a.parts[1].retry_after_ms = 99;
  std::ofstream(answer_path(root, "b1"),
                std::ios::binary | std::ios::trunc)
      << encode_batch_answer(a);
  ASSERT_TRUE(client.wait_batch("b1", polled, /*timeout_ms=*/100));
  ASSERT_EQ(polled.parts.size(), 2u);
  EXPECT_EQ(polled.parts[0].cells[0].ipc, a.parts[0].cells[0].ipc);
  EXPECT_EQ(polled.parts[1].retry_after_ms, 99u);
}

// wait_batch wakes on the answer's rename into answers/, not on its
// poll interval: with a 60-s interval the wait must still end within
// moments of the publish, and another query's answer landing first is
// only a spurious wake.
TEST(ServiceClientTest, WaitBatchWakesOnTheAnswerRename) {
  TempDir tmp("snug_service_wire_wake");
  const std::string root = tmp.dir.string();
  const ServiceClient client(root);
  ServiceBatchAnswer a;
  a.parts.resize(1);
  a.parts[0].cells.push_back({"mixA", {0.5, 1.25}});
  const auto publish = [&](const std::string& id) {
    a.id = id;
    const std::string text = encode_batch_answer(a);
    ASSERT_TRUE(publish_verified(fault::env(), answer_path(root, id),
                                 reinterpret_cast<const std::byte*>(
                                     text.data()),
                                 text.size()));
  };
  constexpr std::uint64_t kPollMs = 60'000;
  for (int round = 0; round < 3; ++round) {
    const std::string id = "w" + std::to_string(round);
    const auto t0 = std::chrono::steady_clock::now();
    // The publisher lets the client reach its wait first (either order
    // must answer; this one exercises the wake).
    std::thread publisher([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      publish("other" + std::to_string(round));
      publish(id);
    });
    ServiceBatchAnswer got;
    const bool ok = client.wait_batch(id, got, /*timeout_ms=*/kPollMs,
                                      /*poll_ms=*/kPollMs);
    publisher.join();
    ASSERT_TRUE(ok) << id;
    EXPECT_EQ(got.id, id);
    EXPECT_EQ(got.parts.at(0).cells.at(0).ipc, a.parts[0].cells[0].ipc);
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::milliseconds(kPollMs / 4));
  }
}

}  // namespace
}  // namespace snug::sim::service
