#include "sim/front_end.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <mutex>
#include <system_error>
#include <thread>

namespace snug::sim {

namespace {

void pause() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// One step of a short wait on another thread's store: a pause for the
/// first spins (a batch takes about a microsecond to make), then yields,
/// so a producer preempted mid-batch does not cost a spinning core.
void relax(unsigned& spins) noexcept {
  if (++spins < 256) {
    pause();
  } else {
    std::this_thread::yield();
  }
}

}  // namespace

/// The process-wide helper: one thread, started on the first attach,
/// that fills the rings of every attached machine, lowest ring first,
/// and sleeps on epoch_ while every attached ring is full.  Owned by the
/// function-local static in helper(), whose destructor stops and joins
/// it.
class FrontEndHelper {
 public:
  FrontEndHelper() = default;
  FrontEndHelper(const FrontEndHelper&) = delete;
  FrontEndHelper& operator=(const FrontEndHelper&) = delete;

  ~FrontEndHelper() {
    const pid_t owner = owner_.load(std::memory_order_acquire);
    // A forked child inherits this object but not the thread: nothing to
    // join, and mu_ may have been copied held.  The handle stays behind.
    if (owner == 0 || owner != ::getpid()) return;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    epoch_.notify_all();
    thread_->join();
    delete thread_;
  }

  /// Adds `lanes` to the served set, starting the thread on first use.
  /// False in a forked child, or when no thread can be started: those
  /// lanes self-serve.
  bool attach(const std::vector<std::unique_ptr<Lookahead>>& lanes) {
    const pid_t self = ::getpid();
    const pid_t owner = owner_.load(std::memory_order_acquire);
    if (owner != 0 && owner != self) return false;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (thread_ == nullptr) {
        try {
          thread_ = new std::thread([this] { loop(); });
        } catch (const std::system_error&) {
          return false;  // e.g. a process at its thread limit
        }
        owner_.store(self, std::memory_order_release);
      }
      for (const auto& lane : lanes) {
        lane->served_.store(true, std::memory_order_relaxed);
        lanes_.push_back(lane.get());
      }
    }
    wake();
    return true;
  }

  /// Removes `lanes` from the served set and waits out the batch the
  /// thread may have in flight for one of them: afterwards it never
  /// touches them again.
  void detach(const std::vector<std::unique_ptr<Lookahead>>& lanes) {
    for (const auto& lane : lanes) {
      lane->served_.store(false, std::memory_order_relaxed);
    }
    {
      const std::lock_guard<std::mutex> lock(mu_);
      std::erase_if(lanes_, [&lanes](const Lookahead* p) {
        return std::any_of(lanes.begin(), lanes.end(),
                           [p](const auto& lane) { return lane.get() == p; });
      });
    }
    for (const auto& lane : lanes) lane->wait_unclaimed();
  }

  /// Called by a consumer whose ring fell to half or below: wakes a
  /// sleeping thread.  The sequentially consistent pair sleeping_ /
  /// tail_ (see loop) makes a lost wake-up impossible.
  void wake_if_sleeping() noexcept {
    if (sleeping_.load(std::memory_order_seq_cst)) wake();
  }

 private:
  /// Bumps epoch_, which ends a poll at once and a sleep by futex.
  void wake() noexcept {
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    if (sleeping_.load(std::memory_order_seq_cst)) epoch_.notify_one();
  }

  void loop() {
    using Clock = std::chrono::steady_clock;
    std::unique_lock<std::mutex> lock(mu_);
    Clock::time_point full_since{};
    bool full = false;
    while (!stop_) {
      // Claims are taken under mu_ only, so detach (which removes its
      // lanes under mu_ after clearing served_) bounds what it must
      // wait for to one batch.
      Lookahead* best = nullptr;
      std::uint64_t best_occupancy = Lookahead::kDepth;
      bool busy = false;
      for (Lookahead* lane : lanes_) {
        const std::uint64_t occupancy = lane->buffered();
        if (occupancy >= Lookahead::kDepth) continue;
        if (lane->claim_.load(std::memory_order_relaxed)) {
          busy = true;  // its consumer is self-serving
        } else if (occupancy < best_occupancy) {
          best = lane;
          best_occupancy = occupancy;
        }
      }
      if (best != nullptr && best->try_claim()) {
        full = false;
        lock.unlock();
        best->produce_claimed();
        lock.lock();
        continue;
      }
      if (best != nullptr || busy) {
        full = false;
        lock.unlock();
        std::this_thread::yield();
        lock.lock();
        continue;
      }
      // Every attached ring is full, or none is attached.  While
      // consumers are running, room reappears within a batch's time:
      // poll (sparingly: each look reads every consumer's tail_ line;
      // an attach ends the pause at once) for kSpinBeforeSleep before
      // paying a futex round trip on both sides.
      const Clock::time_point now = Clock::now();
      if (!full) {
        full = true;
        full_since = now;
      }
      if (now - full_since < kSpinBeforeSleep) {
        lock.unlock();
        const std::uint32_t polled = epoch_.load(std::memory_order_relaxed);
        for (int i = 0;
             i < 512 && epoch_.load(std::memory_order_relaxed) == polled;
             ++i) {
          pause();
        }
        lock.lock();
        continue;
      }
      // Announce the sleep, then look once more.  A ring this look
      // sees full must pass through half full before it can run dry,
      // and a consumer advances tail_ into the lower half before it
      // reads sleeping_; we store sleeping_ before we read tail_, and
      // all four are sequentially consistent — so either this look sees
      // the room, or that consumer sees us asleep and bumps epoch_ (and
      // a bump after `seen` makes the wait return at once).
      const std::uint32_t seen = epoch_.load(std::memory_order_seq_cst);
      sleeping_.store(true, std::memory_order_seq_cst);
      const bool room = std::any_of(
          lanes_.begin(), lanes_.end(), [](const Lookahead* lane) {
            return lane->buffered() < Lookahead::kDepth;
          });
      if (!room) {
        lock.unlock();
        epoch_.wait(seen, std::memory_order_seq_cst);
        lock.lock();
      }
      sleeping_.store(false, std::memory_order_seq_cst);
      full = false;
    }
  }

  /// How long the thread polls full rings before it sleeps: a running
  /// machine drains a batch every few microseconds, so only a helper
  /// with no machine consuming sleeps.
  static constexpr std::chrono::microseconds kSpinBeforeSleep{50};

  std::mutex mu_;
  std::vector<Lookahead*> lanes_;  // guarded by mu_
  bool stop_ = false;              // guarded by mu_
  std::thread* thread_ = nullptr;  // guarded by mu_; owned, see ~
  std::atomic<pid_t> owner_{0};    ///< the process the thread runs in
  std::atomic<std::uint32_t> epoch_{0};
  std::atomic<bool> sleeping_{false};
};

namespace {

FrontEndHelper& helper() {
  static FrontEndHelper instance;
  return instance;
}

}  // namespace

std::size_t Lookahead::fill_batch(std::uint8_t* code, Addr* addr,
                                  std::size_t n) {
  const std::uint64_t t = tail_.load(std::memory_order_relaxed);
  unsigned spins = 0;
  for (;;) {
    if (head_.load(std::memory_order_acquire) != t) {
      return take(t, code, addr, n);
    }
    if (try_claim()) {
      if (head_.load(std::memory_order_relaxed) != t) {
        // The helper published between the look and the claim.
        claim_.store(false, std::memory_order_release);
        return take(t, code, addr, n);
      }
      // Self-serve: the ring is empty, so the stream stands exactly
      // where this consumer does.
      source_.fill_batch(code, addr, n);
      claim_.store(false, std::memory_order_release);
      return n;
    }
    relax(spins);  // the helper has this lane's next batch in flight
  }
}

std::size_t Lookahead::take(std::uint64_t t, std::uint8_t* code,
                            Addr* addr, std::size_t n) {
  const Batch& b = ring_[t % kDepth];
  if (front_pos_ == 0 && head_.load(std::memory_order_relaxed) > t + 1) {
    // The next batch was written on the helper's core: start pulling
    // its lines over now, a batch's worth of simulation before they
    // are needed.
    const auto* next =
        reinterpret_cast<const char*>(&ring_[(t + 1) % kDepth]);
    for (std::size_t off = 0; off < sizeof(Batch); off += 64) {
      __builtin_prefetch(next + off);
    }
  }
  const std::size_t k = std::min(n, kBatch - front_pos_);
  std::memcpy(code, b.code.data() + front_pos_, k);
  std::memcpy(addr, b.addr.data() + front_pos_, k * sizeof(Addr));
  front_pos_ += static_cast<std::uint32_t>(k);
  if (front_pos_ == kBatch) {
    front_pos_ = 0;
    // Only a ring at most half full may need to wake the helper, and
    // only that advance pays for a sequentially consistent store (see
    // FrontEndHelper::loop); a fuller ring's advance is a plain store.
    if (head_.load(std::memory_order_relaxed) - (t + 1) <= kDepth / 2) {
      tail_.store(t + 1, std::memory_order_seq_cst);
      helper().wake_if_sleeping();
    } else {
      tail_.store(t + 1, std::memory_order_release);
    }
  }
  return k;
}

trace::Instr Lookahead::next() {
  std::uint8_t code = 0;
  Addr addr = 0;
  fill_batch(&code, &addr, 1);
  trace::Instr instr;
  instr.kind = static_cast<trace::InstrKind>(code & 7);
  instr.mispredict = (code & trace::kInstrMispredictBit) != 0;
  if ((code >> 1) == 1) instr.addr = addr;  // loads/stores only
  return instr;
}

void Lookahead::produce_claimed() {
  // Fill the ring up, publishing batch by batch: the consumer takes
  // each as it lands, and one pick serves several batches.
  std::uint64_t h = head_.load(std::memory_order_relaxed);
  do {
    Batch& b = ring_[h % kDepth];
    source_.fill_batch(b.code.data(), b.addr.data(), kBatch);
    head_.store(++h, std::memory_order_release);
  } while (h - tail_.load(std::memory_order_acquire) < kDepth &&
           served_.load(std::memory_order_relaxed));
  claim_.store(false, std::memory_order_release);
}

void Lookahead::wait_unclaimed() const noexcept {
  unsigned spins = 0;
  while (claim_.load(std::memory_order_acquire)) relax(spins);
}

FrontEnd::FrontEnd(
    const std::vector<std::unique_ptr<trace::SyntheticStream>>& sources) {
  lanes_.reserve(sources.size());
  for (const auto& s : sources) {
    lanes_.push_back(std::make_unique<Lookahead>(*s));
  }
}

FrontEnd::Attached::Attached(FrontEnd& fe)
    : fe_(fe), attached_(helper().attach(fe.lanes_)) {}

FrontEnd::Attached::~Attached() {
  if (attached_) helper().detach(fe_.lanes_);
}

}  // namespace snug::sim
