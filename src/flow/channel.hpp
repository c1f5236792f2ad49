// flow::Channel<T>: the one bounded hand-off primitive (ISSUE 8).
//
// A fixed-capacity lock-free channel with backpressure. Two ring layouts
// behind one API, chosen at construction:
//
//  - SPSC fast path (`ChannelOptions::spsc`): a Lamport ring — producer owns
//    `tail`, consumer owns `head`, each side caches the other's index, and
//    each side's index and counter share its own cache line. The steady
//    state is one release store and one seq_cst `fetch_add` per op, both
//    on that line; the other side's line is read only when the cached index
//    runs out. For single-producer/single-consumer edges (pipeline stages).
//  - MPMC striped variant: `stripes` independent Vyukov per-slot-sequence
//    subrings (the conc::MpmcRing protocol); each thread starts its sweep at
//    a thread-affine stripe, so concurrent producers/consumers mostly CAS on
//    different cache lines. For many-to-one (EventLoop posts) and
//    one-to-many (downloader work feed) edges.
//
// Blocking edges ride the completion-core park/wake idiom (DESIGN §3, PR 3):
// a producer hitting a full channel or a consumer hitting an empty one
// behaves exactly like a task waiter —
//
//  - pool-capable threads (WorkStealingPool::current_pool() != nullptr)
//    never park here: a worker parked on a channel word cannot be woken by
//    new pool work, and the peer that would free a slot may itself be queued
//    behind the blocked worker (the bounded-buffer variant of the helping
//    deadlock documented in conc/task_safe.hpp). They `help_while` instead.
//  - everything else spins `sched::detail::kWaiterSpins` and then parks on
//    an epoch word with std::atomic::wait, exactly like Completion::wait.
//
// Wakeup protocol (the Completion::complete wake gate): a blocked thread
// that runs out of spins registers in its edge's waiter count, snapshots
// the edge's epoch word, re-checks the ring, and only then waits on the
// snapshot. A successful op bumps the opposite epoch and notifies only when
// that edge's waiter count is non-zero, so in the steady state neither side
// writes a line the other reads. Skipping notify_all saves more than an
// RMW: libstdc++ 12 hashes a waited-on address into one of 16 buckets by
// (addr >> 2) % 16, so every cache-line-aligned word lands in bucket 0, and
// notify_all makes a futex syscall whenever any thread in the process is
// parked on such a word. No wake-up is lost, by a Dekker handshake on
// seq_cst accesses (as in WorkStealingPool::signal_work): the parker's
// seq_cst increment of the count precedes its seq_cst load of the waker's
// counter (`pushed_` for consumers, `popped_` for producers); the waker's
// seq_cst fetch_add of that counter precedes its seq_cst load of the count.
// So either the waker sees the parker and notifies, or the parker's re-check
// sees the op. close(), poison() and discard_all() are rare and wake both
// edges unconditionally.
//
// close()/poison():
//  - close() is the graceful end-of-stream: pushes are rejected, consumers
//    drain what is buffered and then see `closed`. Contract: close() must
//    happen-after the channel's last push (producer-side close, as in Go);
//    the pop path still re-checks the ring once after observing the closed
//    flag as belt-and-braces against racy callers.
//  - poison() is the error path: the channel closes and buffered elements
//    are *discarded and counted* (`dropped`) on the next pop (drain-on-pop
//    keeps the SPSC single-consumer discipline intact — only a consumer, or
//    a quiescent owner via discard_all(), ever touches the consumer index).
//
// Conservation invariant, asserted across the test suite and bench_flow:
// at quiescence, pushed == popped + dropped, exactly.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/trace.hpp"
#include "sched/completion.hpp"
#include "sched/thread_pool.hpp"
#include "support/backoff.hpp"
#include "support/check.hpp"

namespace parc::flow {

enum class PushResult : std::uint8_t { ok, full, closed };
enum class PopResult : std::uint8_t { ok, empty, closed };

struct ChannelOptions {
  /// Ring capacity; rounded up to a power of two (per stripe for MPMC, at
  /// least 2 each, so the usable total is
  /// stripes * max(2, bit_ceil(capacity / stripes))).
  std::size_t capacity = 256;
  /// MPMC subring count; ignored for SPSC. More stripes spread producer
  /// CAS traffic at the cost of weaker cross-stripe FIFO order.
  std::size_t stripes = 1;
  /// Single-producer/single-consumer fast path. Caller contract: at most
  /// one thread pushes and one pops at any time (close() counts as a
  /// producer-side call; poison()/discard_all() as consumer-side).
  bool spsc = false;
};

/// Point-in-time channel counters. Exact at quiescence; monotone-read
/// approximate while ops are in flight.
struct ChannelStats {
  std::uint64_t pushed = 0;
  std::uint64_t popped = 0;
  std::uint64_t dropped = 0;   ///< discarded by poison/discard_all
  std::uint64_t producer_blocks = 0;  ///< pushes that entered the slow path
  std::uint64_t consumer_blocks = 0;  ///< pops that entered the slow path
  std::uint64_t producer_parks = 0;   ///< futex parks (never pool threads)
  std::uint64_t consumer_parks = 0;
  std::uint64_t producer_helps = 0;   ///< blocked ops that rode help_while
  std::uint64_t consumer_helps = 0;
  std::uint64_t producer_blocked_ns = 0;  ///< wall time spent full-blocked
  std::uint64_t consumer_blocked_ns = 0;  ///< wall time spent empty-blocked
  /// Max occupancy observed: on SPSC, sampled exactly each time the
  /// consumer refreshes its view of the producer's index; on MPMC, after
  /// each push.
  std::uint64_t high_water = 0;
  std::size_t occupancy = 0;
  std::size_t capacity = 0;
  bool closed = false;
  bool poisoned = false;
};

namespace detail {
/// Process-unique channel serial for trace events (kChan* `id`).
inline std::uint64_t next_channel_id() noexcept {
  static std::atomic<std::uint64_t> serial{0};
  return serial.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Stable thread-affine stripe seed, so a given producer keeps hammering
/// the same stripe until it fills.
inline std::size_t stripe_hint() noexcept {
  static thread_local const std::size_t h =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return h;
}
}  // namespace detail

template <typename T>
class Channel {
  static_assert(std::is_default_constructible_v<T>,
                "Channel ring slots are default-constructed");
  static_assert(std::is_move_assignable_v<T> && std::is_move_constructible_v<T>,
                "Channel transfers elements by move");

 public:
  explicit Channel(ChannelOptions opts = {})
      : spsc_(opts.spsc), id_(detail::next_channel_id()) {
    PARC_CHECK(opts.capacity > 0);
    if (spsc_) {
      const std::size_t cap = std::bit_ceil(opts.capacity);
      slots_.resize(cap);
      mask_ = cap - 1;
      capacity_ = cap;
    } else {
      const std::size_t n = opts.stripes == 0 ? 1 : opts.stripes;
      // A Vyukov ring needs two slots: in a one-slot ring a producer reads
      // the sequence number it just published as a free slot.
      const std::size_t per =
          std::max<std::size_t>(2, std::bit_ceil((opts.capacity + n - 1) / n));
      stripes_.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        stripes_.push_back(std::make_unique<Stripe>(per));
      }
      capacity_ = per * n;
    }
  }

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  // ---- non-blocking ----

  /// Attempt one push; moves from `v` only on `ok`. Never blocks.
  [[nodiscard]] PushResult try_push(T& v) {
    if (closed_.load(std::memory_order_acquire)) return PushResult::closed;
    if (!ring_try_push(v)) {
      // Racing close() while we swept: report closed, not full, so retry
      // loops terminate.
      return closed_.load(std::memory_order_acquire) ? PushResult::closed
                                                     : PushResult::full;
    }
    after_push();
    return PushResult::ok;
  }

  /// Attempt one pop. Buffered elements drain even after close();
  /// `closed` only once the channel is both closed and empty.
  [[nodiscard]] PopResult try_pop(T& out) {
    if (poisoned_.load(std::memory_order_acquire)) {
      discard_all();
      return PopResult::closed;
    }
    if (ring_try_pop(out)) {
      after_pop();
      return PopResult::ok;
    }
    if (closed_.load(std::memory_order_acquire)) {
      // Belt-and-braces: a push that raced close() may have landed between
      // our sweep and the flag load.
      if (ring_try_pop(out)) {
        after_pop();
        return PopResult::ok;
      }
      return PopResult::closed;
    }
    return PopResult::empty;
  }

  // ---- blocking ----

  /// Push, blocking while full. Returns false iff the channel closed (the
  /// element is dropped — by then no consumer is coming for it).
  bool push(T v) {
    PushResult r = try_push(v);
    if (r == PushResult::full) r = push_slow(v);
    return r == PushResult::ok;
  }

  /// Pop, blocking while empty. Returns false iff closed-and-drained.
  bool pop(T& out) {
    PopResult r = try_pop(out);
    if (r == PopResult::empty) r = pop_slow(out);
    return r == PopResult::ok;
  }

  /// Pop with a deadline: `empty` means the deadline passed. With
  /// time_point::max() this is exactly pop(). std::atomic::wait has no
  /// timed form, so a finite deadline parks in bounded sleep slices
  /// (≤ 1 ms) instead of on the epoch futex — timer-grade precision, not
  /// hand-off-grade (the EventLoop only takes this path while delayed
  /// events are pending).
  [[nodiscard]] PopResult try_pop_until(
      T& out, std::chrono::steady_clock::time_point deadline) {
    using clock = std::chrono::steady_clock;
    if (deadline == clock::time_point::max()) {
      PopResult r = try_pop(out);
      if (r == PopResult::empty) r = pop_slow(out);
      return r;
    }
    PopResult r = try_pop(out);
    if (r != PopResult::empty) return r;
    not_empty_.blocks.fetch_add(1, std::memory_order_relaxed);
    if (obs::tracing()) [[unlikely]] {
      obs::emit(obs::EventKind::kChanFull, id_, 1);
    }
    const auto t0 = clock::now();
    for (std::size_t i = 0;
         i < sched::detail::kWaiterSpins && r == PopResult::empty; ++i) {
      ExponentialBackoff::cpu_relax();
      r = try_pop(out);
    }
    while (r == PopResult::empty) {
      const auto now = clock::now();
      if (now >= deadline) break;
      std::this_thread::sleep_for(
          std::min<clock::duration>(std::chrono::milliseconds(1),
                                    deadline - now));
      r = try_pop(out);
    }
    not_empty_.blocked_ns.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::nanoseconds(clock::now() - t0).count()),
        std::memory_order_relaxed);
    return r;
  }

  // ---- lifecycle ----

  /// Graceful end-of-stream. Must happen-after the last push (producer-side
  /// close). Idempotent; wakes every parked waiter on both edges.
  void close() noexcept { close_impl(false); }

  /// Error-path close: buffered elements are discarded and counted as
  /// `dropped` by the next pop (or discard_all()). Any thread may call it.
  void poison() noexcept {
    poisoned_.store(true, std::memory_order_release);
    close_impl(true);
  }

  /// Drain-and-count every buffered element. Consumer-side (or quiescent —
  /// e.g. Pipeline::wait after joining its stage threads). Returns the
  /// number discarded.
  std::size_t discard_all() {
    std::size_t n = 0;
    T tmp;
    while (ring_try_pop(tmp)) ++n;
    if (n != 0) {
      dropped_.fetch_add(n, std::memory_order_relaxed);
      wake(not_full_);
    }
    return n;
  }

  [[nodiscard]] bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool poisoned() const noexcept {
    return poisoned_.load(std::memory_order_acquire);
  }

  // ---- introspection ----

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

  [[nodiscard]] std::size_t occupancy() const noexcept {
    const std::uint64_t in = pushed_.load(std::memory_order_relaxed);
    const std::uint64_t gone = popped_.load(std::memory_order_relaxed) +
                               dropped_.load(std::memory_order_relaxed);
    // Each counter is written after its ring op, so ops in flight can leave
    // `in - gone` briefly outside [0, capacity].
    return in > gone ? static_cast<std::size_t>(std::min<std::uint64_t>(
                           in - gone, capacity_))
                     : 0;
  }

  [[nodiscard]] ChannelStats stats() const {
    ChannelStats s;
    s.pushed = pushed_.load(std::memory_order_relaxed);
    s.popped = popped_.load(std::memory_order_relaxed);
    s.dropped = dropped_.load(std::memory_order_relaxed);
    s.producer_blocks = not_full_.blocks.load(std::memory_order_relaxed);
    s.consumer_blocks = not_empty_.blocks.load(std::memory_order_relaxed);
    s.producer_parks = not_full_.parks.load(std::memory_order_relaxed);
    s.consumer_parks = not_empty_.parks.load(std::memory_order_relaxed);
    s.producer_helps = not_full_.helps.load(std::memory_order_relaxed);
    s.consumer_helps = not_empty_.helps.load(std::memory_order_relaxed);
    s.producer_blocked_ns =
        not_full_.blocked_ns.load(std::memory_order_relaxed);
    s.consumer_blocked_ns =
        not_empty_.blocked_ns.load(std::memory_order_relaxed);
    s.high_water = high_water_.load(std::memory_order_relaxed);
    s.occupancy = occupancy();
    s.capacity = capacity_;
    s.closed = closed();
    s.poisoned = poisoned();
    return s;
  }

 private:
  // One Vyukov subring: per-slot sequence numbers arbitrate producers and
  // consumers without a shared head/tail pair (conc::MpmcRing protocol).
  struct Slot {
    std::atomic<std::size_t> sequence{0};
    T value{};
  };
  struct Stripe {
    explicit Stripe(std::size_t cap) : slots(cap), mask(cap - 1) {
      for (std::size_t i = 0; i < cap; ++i) {
        slots[i].sequence.store(i, std::memory_order_relaxed);
      }
    }
    bool try_push(T& v) {
      std::size_t pos = enqueue_pos.load(std::memory_order_relaxed);
      for (;;) {
        Slot* slot = &slots[pos & mask];
        const std::size_t seq = slot->sequence.load(std::memory_order_acquire);
        const auto dif = static_cast<std::intptr_t>(seq) -
                         static_cast<std::intptr_t>(pos);
        if (dif == 0) {
          if (enqueue_pos.compare_exchange_weak(pos, pos + 1,
                                                std::memory_order_relaxed)) {
            slot->value = std::move(v);
            slot->sequence.store(pos + 1, std::memory_order_release);
            return true;
          }
        } else if (dif < 0) {
          return false;  // a full lap behind: stripe is full
        } else {
          pos = enqueue_pos.load(std::memory_order_relaxed);
        }
      }
    }
    bool try_pop(T& out) {
      std::size_t pos = dequeue_pos.load(std::memory_order_relaxed);
      for (;;) {
        Slot* slot = &slots[pos & mask];
        const std::size_t seq = slot->sequence.load(std::memory_order_acquire);
        const auto dif = static_cast<std::intptr_t>(seq) -
                         static_cast<std::intptr_t>(pos + 1);
        if (dif == 0) {
          if (dequeue_pos.compare_exchange_weak(pos, pos + 1,
                                                std::memory_order_relaxed)) {
            out = std::move(slot->value);
            slot->sequence.store(pos + mask + 1, std::memory_order_release);
            return true;
          }
        } else if (dif < 0) {
          return false;  // slot not yet published: stripe is empty
        } else {
          pos = dequeue_pos.load(std::memory_order_relaxed);
        }
      }
    }
    std::vector<Slot> slots;
    std::size_t mask;
    alignas(kCacheLineSize) std::atomic<std::size_t> enqueue_pos{0};
    alignas(kCacheLineSize) std::atomic<std::size_t> dequeue_pos{0};
  };

  /// One blocking direction: producers block on not_full_, consumers on
  /// not_empty_. `epoch` and `waiters` share a line that the opposite side
  /// reads on every op but writes only to wake a parked thread; the
  /// blocked side's statistics sit on a line of their own.
  struct Edge {
    alignas(kCacheLineSize) std::atomic<std::uint32_t> epoch{0};
    std::atomic<std::uint32_t> waiters{0};
    alignas(kCacheLineSize) std::atomic<std::uint64_t> blocks{0};
    std::atomic<std::uint64_t> parks{0};
    std::atomic<std::uint64_t> helps{0};
    std::atomic<std::uint64_t> blocked_ns{0};
  };

  bool ring_try_push(T& v) {
    if (spsc_) {
      const std::size_t t = tail_.load(std::memory_order_relaxed);
      if (t - head_cache_ > mask_) {
        head_cache_ = head_.load(std::memory_order_acquire);
        if (t - head_cache_ > mask_) return false;
      }
      slots_[t & mask_] = std::move(v);
      tail_.store(t + 1, std::memory_order_release);
      return true;
    }
    const std::size_t n = stripes_.size();
    const std::size_t start = detail::stripe_hint();
    for (std::size_t k = 0; k < n; ++k) {
      if (stripes_[(start + k) % n]->try_push(v)) return true;
    }
    return false;
  }

  bool ring_try_pop(T& out) {
    if (spsc_) {
      const std::size_t h = head_.load(std::memory_order_relaxed);
      if (h == tail_cache_) {
        tail_cache_ = tail_.load(std::memory_order_acquire);
        if (h == tail_cache_) return false;
        // The consumer owns head_, so this is the exact occupancy now; on
        // SPSC high_water_ has this single writer and the producer no CAS.
        if (tail_cache_ - h > high_water_.load(std::memory_order_relaxed)) {
          high_water_.store(tail_cache_ - h, std::memory_order_relaxed);
        }
      }
      out = std::move(slots_[h & mask_]);
      head_.store(h + 1, std::memory_order_release);
      return true;
    }
    const std::size_t n = stripes_.size();
    const std::size_t start = detail::stripe_hint();
    for (std::size_t k = 0; k < n; ++k) {
      if (stripes_[(start + k) % n]->try_pop(out)) return true;
    }
    return false;
  }

  void after_push() noexcept {
    pushed_.fetch_add(1, std::memory_order_seq_cst);
    if (!spsc_) {
      const std::uint64_t occ = occupancy();
      std::uint64_t hw = high_water_.load(std::memory_order_relaxed);
      while (occ > hw && !high_water_.compare_exchange_weak(
                             hw, occ, std::memory_order_relaxed)) {
      }
    }
    wake_if_parked(not_empty_);
    if (obs::tracing()) [[unlikely]] {
      obs::emit(obs::EventKind::kChanPush, id_, occupancy());
    }
  }

  void after_pop() noexcept {
    popped_.fetch_add(1, std::memory_order_seq_cst);
    wake_if_parked(not_full_);
    if (obs::tracing()) [[unlikely]] {
      obs::emit(obs::EventKind::kChanPop, id_, occupancy());
    }
  }

  PushResult push_slow(T& v) {
    PushResult r = PushResult::full;
    block(not_full_, popped_, 0, [&] {
      r = try_push(v);
      return r == PushResult::full;
    });
    return r;
  }

  PopResult pop_slow(T& out) {
    PopResult r = PopResult::empty;
    block(not_empty_, pushed_, 1, [&] {
      r = try_pop(out);
      return r == PopResult::empty;
    });
    return r;
  }

  /// The slow path of push and pop. `blocked()` retries the op and returns
  /// true while it still cannot proceed; `peer` is the counter the waking
  /// side writes; `side` is the trace arg (0 producer, 1 consumer). Pool
  /// threads help; others spin, then park.
  template <typename Blocked>
  void block(Edge& edge, const std::atomic<std::uint64_t>& peer,
             std::uint64_t side, Blocked&& blocked) {
    using clock = std::chrono::steady_clock;
    edge.blocks.fetch_add(1, std::memory_order_relaxed);
    if (obs::tracing()) [[unlikely]] {
      obs::emit(obs::EventKind::kChanFull, id_, side);
    }
    const auto t0 = clock::now();
    if (auto* pool = sched::WorkStealingPool::current_pool()) {
      edge.helps.fetch_add(1, std::memory_order_relaxed);
      pool->help_while(blocked);
    } else {
      bool still = true;
      for (std::size_t i = 0; i < sched::detail::kWaiterSpins && still; ++i) {
        ExponentialBackoff::cpu_relax();
        still = blocked();
      }
      if (still) {
        // The parker's half of the handshake: register, then load the
        // waker's counter with seq_cst before the re-check.
        edge.waiters.fetch_add(1, std::memory_order_seq_cst);
        for (;;) {
          const std::uint32_t e = edge.epoch.load(std::memory_order_acquire);
          (void)peer.load(std::memory_order_seq_cst);
          if (!blocked()) break;
          edge.parks.fetch_add(1, std::memory_order_relaxed);
          if (obs::tracing()) [[unlikely]] {
            obs::emit(obs::EventKind::kWaiterPark, id_, side);
          }
          edge.epoch.wait(e, std::memory_order_acquire);
          if (obs::tracing()) [[unlikely]] {
            obs::emit(obs::EventKind::kWaiterWake, id_, side);
          }
        }
        edge.waiters.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    edge.blocked_ns.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::nanoseconds(clock::now() - t0).count()),
        std::memory_order_relaxed);
  }

  static void wake(Edge& edge) noexcept {
    edge.epoch.fetch_add(1, std::memory_order_release);
    edge.epoch.notify_all();
  }

  /// The waker's half of the park handshake: the caller has just bumped
  /// its counter (pushed_ or popped_) with seq_cst, and this load is
  /// seq_cst too (block() holds the parker's half).
  static void wake_if_parked(Edge& edge) noexcept {
    if (edge.waiters.load(std::memory_order_seq_cst) != 0) wake(edge);
  }

  void close_impl(bool poison) noexcept {
    const bool was = closed_.exchange(true, std::memory_order_acq_rel);
    // Wake both edges even when already closed: poison-after-close must
    // still kick parked consumers into their drain-and-exit path.
    wake(not_full_);
    wake(not_empty_);
    if (!was && obs::tracing()) [[unlikely]] {
      obs::emit(obs::EventKind::kChanClosed, id_, poison ? 1 : 0);
    }
  }

  const bool spsc_;
  const std::uint64_t id_;
  std::size_t capacity_ = 0;

  // SPSC ring (unused when striped).
  std::vector<T> slots_;
  std::size_t mask_ = 0;

  // MPMC stripes (unused when spsc).
  std::vector<std::unique_ptr<Stripe>> stripes_;

  // Producer line: tail_, the producer's cached view of head_, and pushed_.
  // On SPSC the producer is the only thread that writes it.
  alignas(kCacheLineSize) std::atomic<std::size_t> tail_{0};
  std::size_t head_cache_ = 0;
  std::atomic<std::uint64_t> pushed_{0};

  // Consumer line: head_, the cached tail_, and the counters only the
  // consumer writes on SPSC (on MPMC, producers also raise high_water_).
  alignas(kCacheLineSize) std::atomic<std::size_t> head_{0};
  std::size_t tail_cache_ = 0;
  std::atomic<std::uint64_t> popped_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> high_water_{0};

  // Lifecycle flags: read by both sides on every op, written once.
  alignas(kCacheLineSize) std::atomic<bool> closed_{false};
  std::atomic<bool> poisoned_{false};

  Edge not_full_;
  Edge not_empty_;
};

}  // namespace parc::flow
