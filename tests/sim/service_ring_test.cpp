// SubmitRing tests (ISSUE 10): the bounded lock-free MPSC ring under a
// multi-producer fuzz — N producer threads x M ops each, every payload
// checksummed end to end, full-ring backpressure exercised — plus the
// RingOp completion protocol and the ring-tier client path against a
// real CampaignServer (warm batches answer in memory; misses ride the
// journaled backlog; cold and warm ring answers bit-equal direct
// simulation; an unpublished op leaves no answer file and matches the
// file wire bit for bit; shutdown completes every accepted op).  The
// fuzz is the TSan target wired into CI: run it under
// SNUG_SANITIZE=thread.
#include "sim/service/ring.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32.hpp"
#include "service_test_util.hpp"
#include "sim/service/client.hpp"
#include "sim/service/server.hpp"

namespace snug::sim::service {
namespace {

namespace fs = std::filesystem;

TEST(SubmitRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SubmitRing(0).capacity(), 2u);
  EXPECT_EQ(SubmitRing(2).capacity(), 2u);
  EXPECT_EQ(SubmitRing(3).capacity(), 4u);
  EXPECT_EQ(SubmitRing(1024).capacity(), 1024u);
  EXPECT_EQ(SubmitRing(1025).capacity(), 2048u);
}

TEST(SubmitRingTest, PushPopFifoAndEmpty) {
  SubmitRing ring(4);
  EXPECT_EQ(ring.try_pop(), nullptr);
  RingOp a;
  RingOp b;
  ASSERT_TRUE(ring.try_push(&a));
  ASSERT_TRUE(ring.try_push(&b));
  EXPECT_EQ(ring.size_approx(), 2u);
  EXPECT_EQ(ring.try_pop(), &a);
  EXPECT_EQ(ring.try_pop(), &b);
  EXPECT_EQ(ring.try_pop(), nullptr);
}

TEST(SubmitRingTest, FullRingRefusesAndRecoversAfterDrain) {
  SubmitRing ring(2);
  RingOp ops[3];
  ASSERT_TRUE(ring.try_push(&ops[0]));
  ASSERT_TRUE(ring.try_push(&ops[1]));
  EXPECT_FALSE(ring.try_push(&ops[2])) << "full ring must backpressure";
  EXPECT_EQ(ring.try_pop(), &ops[0]);
  EXPECT_TRUE(ring.try_push(&ops[2])) << "a drained slot is reusable";
  EXPECT_EQ(ring.try_pop(), &ops[1]);
  EXPECT_EQ(ring.try_pop(), &ops[2]);
}

TEST(RingOpTest, CompleteWakesWait) {
  RingOp op;
  EXPECT_EQ(op.state(), RingOp::kPending);
  std::jthread completer([&op] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    op.answer.id = "done";
    op.complete();
  });
  op.wait();
  EXPECT_EQ(op.state(), RingOp::kAnswered);
  EXPECT_EQ(op.answer.id, "done");
}

/// Checksum of one fuzz payload: the op's id + every scenario byte.
std::uint32_t payload_crc(const ServiceBatchQuery& q) {
  std::uint32_t crc = crc32c(q.id.data(), q.id.size());
  for (const BatchItem& item : q.items) {
    crc = crc32c(item.scenario_text.data(), item.scenario_text.size(), crc);
  }
  return crc;
}

// The acceptance fuzz: N producers x M ops through a deliberately tiny
// ring (so full-ring backpressure fires constantly), one consumer
// checksumming every delivery.  Every op must arrive exactly once with
// its payload intact, and every producer must eventually get every op
// accepted (backpressure never becomes livelock).
TEST(SubmitRingTest, MultiProducerFuzzDeliversEveryOpChecksummed) {
  constexpr unsigned kProducers = 4;
  constexpr unsigned kOpsPerProducer = 2'000;
  constexpr unsigned kTotal = kProducers * kOpsPerProducer;

  SubmitRing ring(8);  // tiny on purpose: maximise wrap + full cases
  std::atomic<std::uint32_t> delivered{0};
  std::atomic<std::uint32_t> crc_failures{0};
  std::atomic<std::uint32_t> duplicate_deliveries{0};
  std::vector<std::vector<std::uint8_t>> seen(
      kProducers, std::vector<std::uint8_t>(kOpsPerProducer, 0));

  std::jthread consumer([&] {
    std::uint32_t got = 0;
    while (got < kTotal) {
      RingOp* op = ring.try_pop();
      if (op == nullptr) {
        std::this_thread::yield();
        continue;
      }
      ++got;
      // The producer stashed the expected checksum in answer.id.
      const std::uint32_t want =
          static_cast<std::uint32_t>(std::stoul(op->answer.id));
      if (payload_crc(op->query) != want) {
        crc_failures.fetch_add(1, std::memory_order_relaxed);
      }
      const unsigned producer =
          static_cast<unsigned>(std::stoul(op->query.items[0].scheme_id));
      const unsigned index =
          static_cast<unsigned>(std::stoul(op->query.items[1].scheme_id));
      if (seen[producer][index]++ != 0) {
        duplicate_deliveries.fetch_add(1, std::memory_order_relaxed);
      }
      delivered.fetch_add(1, std::memory_order_relaxed);
      op->complete();  // hand the storage back to the producer
    }
  });

  std::vector<std::jthread> producers;
  producers.reserve(kProducers);
  for (unsigned p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (unsigned i = 0; i < kOpsPerProducer; ++i) {
        RingOp op;
        op.query.id = std::to_string(p * kOpsPerProducer + i);
        op.query.items.resize(2);
        op.query.items[0].scheme_id = std::to_string(p);
        op.query.items[0].scenario_text =
            "payload-" + std::string(1 + (i % 61), 'x');
        op.query.items[1].scheme_id = std::to_string(i);
        op.query.items[1].scenario_text = std::to_string(p ^ (i * 2654435761u));
        op.answer.id = std::to_string(payload_crc(op.query));
        while (!ring.try_push(&op)) std::this_thread::yield();
        // The op is stack storage: the consumer must release it before
        // this iteration's frame dies.
        op.wait();
      }
    });
  }
  producers.clear();  // join
  consumer.join();

  EXPECT_EQ(delivered.load(), kTotal);
  EXPECT_EQ(crc_failures.load(), 0u);
  EXPECT_EQ(duplicate_deliveries.load(), 0u);
  for (unsigned p = 0; p < kProducers; ++p) {
    for (unsigned i = 0; i < kOpsPerProducer; ++i) {
      EXPECT_EQ(seen[p][i], 1) << "producer " << p << " op " << i;
    }
  }
}

// ---- ring tier against a real server ----

struct TempDir {
  explicit TempDir(const char* name) {
    dir = fs::temp_directory_path() / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  ~TempDir() { fs::remove_all(dir); }
  [[nodiscard]] std::string path(const char* sub) const {
    return (dir / sub).string();
  }
  fs::path dir;
};

constexpr const char* kScenario =
    "cores=4 workload=gzip+mesa+gzip+mesa warmup-cycles=10000 "
    "measure-cycles=40000";

ServiceConfig small_config(const TempDir& tmp, const char* root = "svc") {
  ServiceConfig cfg;
  cfg.root = tmp.path(root);
  cfg.cache_dir = tmp.path("cache");
  cfg.workers = 2;
  return cfg;
}

TEST(RingClientTest, MissSimulatesThenWarmBatchAnswersInMemory) {
  TempDir tmp("snug_ring_client");
  const ServiceConfig cfg = small_config(tmp);
  CampaignServer server(cfg);
  std::jthread serving([&server] { server.serve(0, 1); });

  RingClient client(server);
  ServiceBatchQuery q;
  q.id = "ring-1";
  q.items.push_back(BatchItem{kScenario, "SNUG"});
  ServiceBatchAnswer cold;
  std::string error;
  ASSERT_TRUE(client.query(q, cold, /*publish=*/false, &error)) << error;
  ASSERT_EQ(cold.parts.size(), 1u);
  ASSERT_EQ(cold.parts[0].status, AnswerStatus::kOk)
      << cold.parts[0].error;
  ASSERT_EQ(cold.parts[0].cells.size(), 1u);

  // Second time around the cell is index-resident: the op completes at
  // the drain with no backlog involvement — and identical bytes.
  q.id = "ring-2";
  ServiceBatchAnswer warm;
  ASSERT_TRUE(client.query(q, warm, /*publish=*/false, &error)) << error;
  ASSERT_EQ(warm.parts.size(), 1u);
  EXPECT_EQ(warm.parts[0].cells[0].ipc, cold.parts[0].cells[0].ipc);
  // Both ring answers bit-equal the same cell simulated with no service.
  const std::vector<AnswerCell> direct =
      testutil::direct_cells(kScenario, "SNUG");
  testutil::expect_cells_equal(cold.parts[0].cells, direct);
  testutil::expect_cells_equal(warm.parts[0].cells, direct);

  server.request_stop();
  serving.join();
  const CampaignServer::Stats s = server.stats();
  EXPECT_EQ(s.ring_submits, 2u);
  EXPECT_GE(s.ring_inline_answers, 1u) << "the warm op must skip the backlog";
  EXPECT_EQ(s.ring_backlogged, 1u);
  EXPECT_EQ(client.wire_fallbacks(), 0u);
}

TEST(RingClientTest, PublishWritesTheDurableAnswerFile) {
  TempDir tmp("snug_ring_publish");
  const ServiceConfig cfg = small_config(tmp);
  CampaignServer server(cfg);
  std::jthread serving([&server] { server.serve(0, 1); });

  RingClient client(server);
  ServiceBatchQuery q;
  q.id = "soak-batch";
  q.items.push_back(BatchItem{kScenario, "SNUG"});
  q.items.push_back(BatchItem{kScenario, "L2P"});
  ServiceBatchAnswer a;
  std::string error;
  ASSERT_TRUE(client.query(q, a, /*publish=*/true, &error)) << error;
  server.request_stop();
  serving.join();

  ASSERT_TRUE(fs::exists(answer_path(cfg.root, "soak-batch")))
      << "publish=true must leave the durable answer file";
  // The file holds exactly the encoding of the in-memory answer...
  std::ifstream in(answer_path(cfg.root, "soak-batch"), std::ios::binary);
  const std::string raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  EXPECT_EQ(raw, encode_batch_answer(a));
  // ...and parses back to it.
  ServiceClient wire(cfg.root);
  ServiceBatchAnswer from_file;
  ASSERT_TRUE(wire.try_poll_batch("soak-batch", from_file));
  EXPECT_EQ(encode_batch_answer(from_file), encode_batch_answer(a));
}

/// Status, combos and every IPC's bits equal (ids may differ).
void expect_bit_equal(const ServiceBatchAnswer& got,
                      const ServiceBatchAnswer& want) {
  ASSERT_EQ(got.parts.size(), want.parts.size());
  for (std::size_t p = 0; p < want.parts.size(); ++p) {
    const BatchPart& g = got.parts[p];
    const BatchPart& w = want.parts[p];
    EXPECT_EQ(g.status, w.status) << p;
    EXPECT_EQ(g.error, w.error) << p;
    ASSERT_EQ(g.cells.size(), w.cells.size()) << p;
    for (std::size_t c = 0; c < w.cells.size(); ++c) {
      EXPECT_EQ(g.cells[c].combo, w.cells[c].combo);
      ASSERT_EQ(g.cells[c].ipc.size(), w.cells[c].ipc.size());
      for (std::size_t i = 0; i < w.cells[c].ipc.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(g.cells[c].ipc[i]),
                  std::bit_cast<std::uint64_t>(w.cells[c].ipc[i]))
            << g.cells[c].combo << " core " << i;
      }
    }
  }
}

TEST(RingClientTest, UnpublishedSweepWritesNoFileAndMatchesTheFileWire) {
  TempDir tmp("snug_ring_unpublished");
  const ServiceConfig cfg = small_config(tmp);
  CampaignServer server(cfg);
  std::jthread serving([&server] { server.serve(0, 1); });

  RingClient client(server);
  ServiceBatchQuery q;
  q.id = "sweep-ring";
  q.items.push_back(BatchItem{kScenario, "SNUG"});
  q.items.push_back(BatchItem{kScenario, "L2P"});
  q.items.push_back(BatchItem{kScenario, "NOPE"});
  ServiceBatchAnswer cold;
  std::string error;
  ASSERT_TRUE(client.query(q, cold, /*publish=*/false, &error)) << error;
  // Warm: every cell from the index, answered in memory.
  ServiceBatchAnswer ring;
  ASSERT_TRUE(client.query(q, ring, /*publish=*/false, &error)) << error;
  EXPECT_EQ(ring.id, "sweep-ring");
  ASSERT_EQ(ring.parts.size(), 3u);
  EXPECT_EQ(ring.parts[0].status, AnswerStatus::kOk) << ring.parts[0].error;
  EXPECT_EQ(ring.parts[2].status, AnswerStatus::kError);
  for (const auto& e : fs::directory_iterator(answer_dir(cfg.root))) {
    ADD_FAILURE() << "publish=false left " << e.path();
  }

  // The same sweep over the file wire answers the same bits.
  ServiceClient wire(cfg.root);
  q.id = "sweep-file";
  ASSERT_TRUE(wire.submit_batch(q, &error)) << error;
  ServiceBatchAnswer from_file;
  ASSERT_TRUE(wire.wait_batch("sweep-file", from_file, /*timeout_ms=*/30'000));
  server.request_stop();
  serving.join();
  expect_bit_equal(ring, from_file);
  expect_bit_equal(cold, ring);
  EXPECT_EQ(server.stats().ring_inline_answers, 1u);
}

TEST(RingClientTest, ServerShutdownCompletesOutstandingOpsWithError) {
  TempDir tmp("snug_ring_shutdown");
  ServiceConfig cfg = small_config(tmp);
  cfg.workers = 1;
  RingOp op;
  op.query.id = "orphan";
  op.query.items.push_back(BatchItem{kScenario, "SNUG"});
  {
    CampaignServer server(cfg);
    // Submit a miss but never serve it: destruction must still answer.
    ASSERT_TRUE(server.ring_submit(&op));
  }
  ASSERT_EQ(op.state(), RingOp::kAnswered)
      << "the dtor must complete every accepted op";
  ASSERT_EQ(op.answer.parts.size(), 1u);
  EXPECT_EQ(op.answer.parts[0].status, AnswerStatus::kError);
}

}  // namespace
}  // namespace snug::sim::service
