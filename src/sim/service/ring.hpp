// SubmitRing — the in-process submit ring of the campaign service
// (ISSUE 10 tentpole, tier 2 of the hit-path latency stack).
//
// The file wire (wire.hpp) is the durability and compatibility tier:
// every message is an atomically published file, which is exactly what
// the crash contract needs and exactly wrong for latency — a warm hit
// over the file wire costs two publishes plus a poll interval.  Clients
// that live in the SAME PROCESS as the server (benchmarks, embedding
// tools, the --ring-queries driver in bench/campaignd.cpp) can skip the
// filesystem entirely: they enqueue a RingOp pointer into this bounded
// lock-free multi-producer/single-consumer ring and spin-then-wait on
// the op's state word.  The server's drain loop pops ops, resolves warm
// hits against the AnswerIndex in memory, and flips the state word —
// tens of microseconds end to end, no syscalls on the warm path.
//
// The ring is LATENCY-ONLY, never a durability tier: an op whose cells
// miss the index is admitted into the same backlog as a file-wire
// query, so kill -9 semantics are unchanged — the op's answer
// can also be published as a durable answer file (RingOp::publish) for
// crash/resume byte-diffing.
//
// Concurrency design (the classic bounded-MPMC sequence protocol,
// specialised to one consumer): each slot carries a sequence word.
//   slot.seq == pos            -> slot free, producers race to claim it
//                                 by CAS on tail_
//   slot.seq == pos + 1        -> slot holds an op, consumer may pop
//   slot.seq == pos + capacity -> slot recycled for the next lap
// Producers never block and never touch each other's cache lines
// (slots are cache-line padded); a full ring returns false and the
// caller falls back to the file wire or retries.  Ownership: a pushed
// op belongs to the server until the op's state leaves kPending —
// the client MUST wait (RingOp::wait has no timeout for exactly that
// reason; the server always completes every accepted op, including
// on shutdown, where outstanding ops drain with status=error).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/service/wire.hpp"

namespace snug::sim::service {

/// One in-flight ring submission.  The submitting thread owns the
/// storage (typically stack-allocated); the server owns the op from a
/// successful try_push until state() != kPending.
class RingOp {
 public:
  enum State : std::uint32_t {
    kPending = 0,  ///< queued or being served
    kAnswered = 1, ///< answer filled; client may read and destroy
  };

  ServiceBatchQuery query;
  /// True to ALSO publish the answer as a durable answers/<id>.answer
  /// file (the crash-soak contract); the in-memory answer is filled
  /// either way.
  bool publish = false;

  /// Valid only after wait()/state()==kAnswered.
  ServiceBatchAnswer answer;

  [[nodiscard]] State state() const noexcept {
    return static_cast<State>(state_.load(std::memory_order_acquire));
  }

  /// Blocks until the server completes the op: a short spin (the warm
  /// path answers in microseconds) then a futex-backed atomic wait.
  void wait() const noexcept {
    for (int i = 0; i < 4096; ++i) {
      if (state_.load(std::memory_order_acquire) != kPending) return;
    }
    state_.wait(kPending, std::memory_order_acquire);
  }

  /// Server side: publishes `answer` to the waiting client.  Must be
  /// called exactly once per accepted op.
  void complete() noexcept {
    state_.store(kAnswered, std::memory_order_release);
    state_.notify_one();
  }

 private:
  std::atomic<std::uint32_t> state_{kPending};
};

/// Bounded lock-free MPSC ring of RingOp pointers.
class SubmitRing {
 public:
  /// `capacity` is rounded up to a power of two (minimum 2).
  explicit SubmitRing(std::size_t capacity);

  SubmitRing(const SubmitRing&) = delete;
  SubmitRing& operator=(const SubmitRing&) = delete;

  /// Multi-producer enqueue.  False when the ring is full (backpressure:
  /// the caller owns the op again immediately and may retry or fall
  /// back to the file wire).
  [[nodiscard]] bool try_push(RingOp* op) noexcept;

  /// Single-consumer dequeue; nullptr when empty.  Must only ever be
  /// called from one thread at a time.
  [[nodiscard]] RingOp* try_pop() noexcept;

  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Approximate occupancy (racy by nature; monitoring only).
  [[nodiscard]] std::size_t size_approx() const noexcept;

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> seq;
    RingOp* op;
  };

  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_;
  alignas(64) std::atomic<std::uint64_t> tail_{0};  ///< producers claim
  alignas(64) std::atomic<std::uint64_t> head_{0};  ///< consumer position
};

}  // namespace snug::sim::service
