// The pipelined instruction front end: each core of a CmpSystem consumes
// its SyntheticStream through a Lookahead — a fixed ring of SoA batches
// (cpu::Core::kFetchBatch instructions each) — and one process-wide
// helper thread fills the rings of every machine currently inside
// CmpSystem::run() while the run thread simulates.  Synthesis depends on
// neither timing nor scheme, so it overlaps the core step freely.
//
// Bit-identity by construction: a stream's batches are made only under
// its lane's claim flag, whoever makes them — the helper into the ring,
// or the consumer itself when it finds the ring empty (the self-serve
// rule: it takes the claim and synthesises straight into its own buffer,
// waiting only for a batch the helper already has in flight).  The ring
// is FIFO and the consumer drains it before it self-serves, so batch k
// of a stream reaches its core k-th, and the core sees exactly the
// instruction sequence a direct SyntheticStream would give it.  Nothing
// waits on the helper except for one in-flight batch: it never sits on
// a critical path, it can serve any number of concurrent machines
// (campaign jobs, campaignd workers), and a process without it (a forked
// child: fork copies only the calling thread) still runs, self-serving
// every batch.
//
// Lookahead made during one run() stays in the ring and is consumed
// first by the next, so run(a) then run(b) still equals run(a + b).
// The ring is part of no warm-state blob: the stream cursor is ahead of
// the consumer by whatever the ring holds, which is why
// CmpSystem::warm_functional consumes synchronously and save_warm_state
// is refused once a machine has run.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "trace/instr.hpp"
#include "trace/synth_stream.hpp"

namespace snug::sim {

class FrontEndHelper;

/// One core's lookahead ring in front of its stream.  Single consumer
/// (the thread driving the machine); batches are made under claim_ by
/// the helper or by the consumer.
class Lookahead final : public trace::InstrStream {
 public:
  /// Instructions per batch: the core's fetch batch (static_assert'ed
  /// in sim/system.cpp).
  static constexpr std::size_t kBatch = 64;
  /// Batches the ring holds ahead of the consumer.
  static constexpr std::uint64_t kDepth = 8;

  explicit Lookahead(trace::SyntheticStream& source) : source_(source) {}
  Lookahead(const Lookahead&) = delete;
  Lookahead& operator=(const Lookahead&) = delete;

  /// Takes up to n instructions from the front batch of the ring, or —
  /// when the ring is empty — synthesises n under the claim.  Returns
  /// the count taken (1..n).
  std::size_t fill_batch(std::uint8_t* code, Addr* addr,
                         std::size_t n) override;
  trace::Instr next() override;
  /// References the source has generated, lookahead included.  Read it
  /// only while the machine is outside run().
  [[nodiscard]] std::uint64_t l2_refs() const override {
    return source_.l2_refs();
  }
  [[nodiscard]] const char* name() const override { return source_.name(); }

  /// Batches made ahead of the consumer.  Sequentially consistent: the
  /// helper's last look before it sleeps pairs with a consumer's
  /// advance of tail_ on a ring at most half full (see
  /// FrontEndHelper::loop).
  [[nodiscard]] std::uint64_t buffered() const noexcept {
    return head_.load(std::memory_order_seq_cst) -
           tail_.load(std::memory_order_seq_cst);
  }

 private:
  friend class FrontEndHelper;

  struct alignas(64) Batch {
    std::array<std::uint8_t, kBatch> code;
    std::array<Addr, kBatch> addr;
  };

  bool try_claim() noexcept {
    bool expected = false;
    return claim_.compare_exchange_strong(expected, true,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed);
  }
  /// Copies from the front batch (tail t); advances tail_ past a batch
  /// it finishes.
  std::size_t take(std::uint64_t t, std::uint8_t* code, Addr* addr,
                   std::size_t n);
  /// Helper side, claim held and the ring not full: makes batches until
  /// the ring is full or the lane is detached, publishing each, then
  /// releases the claim.
  void produce_claimed();
  /// Spins until no producer holds the claim (the helper's batch in
  /// flight, if any, has landed).
  void wait_unclaimed() const noexcept;

  trace::SyntheticStream& source_;
  std::array<Batch, kDepth> ring_;
  // Producer side: head_ counts batches made and moves only under
  // claim_.  The consumer's tail_ sits on its own line.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  std::atomic<bool> claim_{false};
  /// Attached: the helper may fill the ring.  Cleared first by detach,
  /// so a fill in flight stops after its current batch.
  std::atomic<bool> served_{false};
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::uint32_t front_pos_ = 0;  ///< instructions taken from the front batch
};

/// A machine's lanes, one per core.  CmpSystem::run attaches them to the
/// process-wide helper for its span (Attached); detaching waits out the
/// helper's batch in flight, so a detached FrontEnd may be destroyed.
class FrontEnd {
 public:
  explicit FrontEnd(
      const std::vector<std::unique_ptr<trace::SyntheticStream>>& sources);
  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  [[nodiscard]] Lookahead& lane(CoreId c) { return *lanes_[c]; }

  /// RAII: the lanes are served by the helper while this lives.
  class Attached {
   public:
    explicit Attached(FrontEnd& fe);
    ~Attached();
    Attached(const Attached&) = delete;
    Attached& operator=(const Attached&) = delete;

   private:
    FrontEnd& fe_;
    bool attached_;  ///< false in a process without a helper
  };

 private:
  std::vector<std::unique_ptr<Lookahead>> lanes_;
};

}  // namespace snug::sim
