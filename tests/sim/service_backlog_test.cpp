// BacklogScheduler tests: FIFO dispatch with fingerprint dedup,
// admission control that sheds whole queries atomically, completion
// that removes a running cell from the backlog, and the poisoned
// terminal state.
#include "sim/service/backlog.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace snug::sim::service {
namespace {

BacklogCell cell(std::uint64_t fp, const std::string& combo = "mixA",
                 const std::string& scheme = "SNUG") {
  BacklogCell c;
  c.fp = fp;
  c.combo = combo;
  c.scheme = scheme;
  c.label = combo + "/" + scheme;
  c.runner_key = 99;
  return c;
}

TEST(BacklogScheduler, FifoDispatchWithDedup) {
  BacklogScheduler sched(/*max_pending=*/0);
  std::vector<std::uint64_t> fresh;
  ASSERT_TRUE(sched.admit({cell(1), cell(2)}, &fresh));
  ASSERT_TRUE(sched.admit({cell(2), cell(3)}, &fresh));
  EXPECT_EQ(fresh, (std::vector<std::uint64_t>{1, 2, 3}))
      << "cell 2 deduplicates into the first query's entry";
  EXPECT_EQ(sched.counters().deduplicated, 1u);
  EXPECT_EQ(sched.pending(), 3u);

  BacklogCell out;
  ASSERT_TRUE(sched.next_pending(out));
  EXPECT_EQ(out.fp, 1u);
  ASSERT_TRUE(sched.next_pending(out));
  EXPECT_EQ(out.fp, 2u);
  EXPECT_EQ(sched.state(2), BacklogScheduler::State::kRunning);
  EXPECT_EQ(sched.backlog(), 3u) << "pending + running";
  ASSERT_TRUE(sched.next_pending(out));
  EXPECT_EQ(out.fp, 3u);
  EXPECT_FALSE(sched.next_pending(out));
}

TEST(BacklogScheduler, AdmissionCapShedsTheWholeQuery) {
  BacklogScheduler sched(/*max_pending=*/2);
  ASSERT_TRUE(sched.admit({cell(1), cell(2)}, nullptr));
  // A query with one known and two fresh cells would reach 4 > 2:
  // refused, and NOTHING of it is enqueued (no partial admission).
  EXPECT_FALSE(sched.admit({cell(2), cell(3), cell(4)}, nullptr));
  EXPECT_EQ(sched.backlog(), 2u);
  EXPECT_EQ(sched.state(3), BacklogScheduler::State::kUnknown);
  EXPECT_EQ(sched.state(4), BacklogScheduler::State::kUnknown);
  EXPECT_EQ(sched.counters().shed, 1u);

  // Draining the backlog reopens admission.
  BacklogCell out;
  ASSERT_TRUE(sched.next_pending(out));
  sched.complete(out.fp);
  EXPECT_TRUE(sched.admit({cell(3)}, nullptr));
}

TEST(BacklogScheduler, CompletionLeavesTheBacklog) {
  BacklogScheduler sched(0);
  ASSERT_TRUE(sched.admit({cell(1), cell(2)}, nullptr));
  sched.complete(2);  // pending, not running: no-op
  EXPECT_EQ(sched.state(2), BacklogScheduler::State::kPending);
  BacklogCell out;
  ASSERT_TRUE(sched.next_pending(out));
  ASSERT_EQ(out.fp, 1u);
  sched.complete(1);
  EXPECT_EQ(sched.state(1), BacklogScheduler::State::kUnknown)
      << "a finished cell leaves the backlog";
  EXPECT_EQ(sched.counters().completed, 1u);
  EXPECT_EQ(sched.backlog(), 1u);
}

TEST(BacklogScheduler, PoisonIsTerminalAndCarriesTheDiagnostic) {
  BacklogScheduler sched(0);
  ASSERT_TRUE(sched.admit({cell(1), cell(2)}, nullptr));
  BacklogCell out;
  ASSERT_TRUE(sched.next_pending(out));
  sched.poison(1, "mixA/SNUG: gave up after 3 attempts");
  EXPECT_EQ(sched.state(1), BacklogScheduler::State::kPoisoned);
  EXPECT_EQ(sched.poison_error(1), "mixA/SNUG: gave up after 3 attempts");
  sched.complete(1);
  EXPECT_EQ(sched.state(1), BacklogScheduler::State::kPoisoned)
      << "poison is terminal";
  EXPECT_EQ(sched.counters().completed, 0u);
  EXPECT_EQ(sched.backlog(), 1u) << "the healthy cell is unaffected";
  // Poisoning a pending cell removes it from the queue too.
  sched.poison(2, "also bad");
  EXPECT_FALSE(sched.next_pending(out));
  EXPECT_EQ(sched.backlog(), 0u);
}

}  // namespace
}  // namespace snug::sim::service
